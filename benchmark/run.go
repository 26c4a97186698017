package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"mcmdist"
)

// config sets the schedule of one benchmark run.
type config struct {
	// seconds is the closed-loop solve time per workload, split evenly
	// across the rounds.
	seconds float64
	// rounds is how many times each workload sets up a fresh graph variant
	// and solves on it.
	rounds int
	// minSolves is the least number of timed solves per round, so that the
	// pooled p90 keeps ten samples beyond it.
	minSolves int
	// trace adds the traced pass, the in-process baselines and the
	// ping-pong that the per-layer metrics need.
	trace bool
	// scale overrides every workload's graph scale when positive.
	scale int
}

const (
	// tracedPerRound traced solves per round: 10 over the 10 rounds.
	tracedPerRound = 1
	// baselinePerRound in-process solves per round give the base that
	// tcpnet.gap_ms and core.replay_ms subtract.
	baselinePerRound = 1
)

// samples holds named observations: one per solve, per round or per traced
// solve, depending on the set.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// result accumulates one workload's run.
type result struct {
	w                 *workload
	attempted, failed int
	errs              []string // the first few failures, for the report
	engine            string
	solve             samples // per timed solve
	round             samples // per round
	traced            samples // per traced solve
	// α-β ping-pong constants of the two transports (trace only).
	alphaUs, betaNs, tcpAlphaUs, tcpBetaNs float64
}

func newResult(w *workload) *result {
	return &result{w: w, solve: samples{}, round: samples{}, traced: samples{}}
}

func (r *result) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// checked counts s as an attempted solve and reports whether it passed
// check; a failed check counts one failure.
func (r *result) checked(in *instance, s sample) bool {
	r.attempted++
	if err := r.w.check(in, s); err != nil {
		r.fail(fmt.Errorf("%s: %w", r.w.name, err))
		return false
	}
	return true
}

// variantSeed derives the seed of one round's graph variant from the run's
// seed, so a run averages over several graphs and one seed names them all.
func variantSeed(seed int64, round int) int64 { return seed*1000 + int64(round) }

// runBenchmark runs cfg.rounds rounds; in each, every workload sets up a
// fresh graph variant and solves on it in a closed loop. Interleaving the
// workloads spreads slow drift of the host over all of them alike.
func runBenchmark(cfg config, ws []*workload, seed int64) ([]*result, error) {
	rs := make([]*result, len(ws))
	for i, w := range ws {
		rs[i] = newResult(w)
	}
	for round := 0; round < cfg.rounds; round++ {
		for _, r := range rs {
			r.runRound(cfg, variantSeed(seed, round))
		}
	}
	if !cfg.trace {
		return rs, nil
	}
	a, b, err := pingPongInproc()
	if err != nil {
		return nil, fmt.Errorf("in-process ping-pong: %w", err)
	}
	ta, tb, err := pingPongTCP()
	if err != nil {
		return nil, fmt.Errorf("tcp ping-pong: %w", err)
	}
	for _, r := range rs {
		r.alphaUs, r.betaNs, r.tcpAlphaUs, r.tcpBetaNs = a, b, ta, tb
	}
	return rs, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runRound sets up one graph variant, verifies a reference solve, and then
// solves in a closed loop for this round's share of cfg.seconds: one solve
// in flight, no think time. Only the solve calls are timed.
func (r *result) runRound(cfg config, seed int64) {
	w := r.w
	scale := w.scale
	if cfg.scale > 0 {
		scale = cfg.scale
	}
	in, gen, dist, err := w.setup(seed, scale)
	if err != nil {
		r.attempted++
		r.fail(err)
		return
	}
	defer in.close()
	r.round.add("gen.graph_s", gen.Seconds())
	r.round.add("spmat.distribute_s", dist.Seconds())
	r.round.add("setup_s", (gen + dist).Seconds())

	// Two warm-up solves: the verified reference, then the workload's own
	// path checked against it.
	r.attempted++
	ref, _, err := w.reference(in)
	if err == nil {
		err = verifyReference(in.g, ref)
	}
	if err != nil {
		r.fail(fmt.Errorf("%s: reference solve: %w", w.name, err))
		return
	}
	in.ref = ref
	r.checked(in, w.solve(in, nil))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var lat []float64
	var cycle float64
	slice := time.Duration(cfg.seconds / float64(cfg.rounds) * float64(time.Second))
	start := time.Now()
	for n := 0; n < cfg.minSolves || time.Since(start) < slice; n++ {
		s := w.solve(in, nil)
		if !r.checked(in, s) {
			continue
		}
		if len(lat) == 0 {
			r.recordCounts(s)
		}
		lat = append(lat, ms(s.latency))
		cycle += s.cycle.Seconds()
		r.recordSolve(s)
	}
	runtime.ReadMemStats(&after)
	if len(lat) == 0 {
		return
	}
	n := float64(len(lat))
	allocMB := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	r.round.add("solves", n)
	r.round.add("alloc_mb", allocMB)
	r.round.add("mallocs", float64(after.Mallocs-before.Mallocs))
	r.round.add("gc", float64(after.NumGC-before.NumGC))
	r.round.add("solve_p50_ms", percentile(lat, 500))
	r.round.add("solve_p90_ms", percentile(lat, 900))
	r.round.add("solves_per_s", n/cycle)
	r.round.add("alloc_mb_per_solve", allocMB/n)

	if cfg.trace {
		r.tracePass(in, percentile(lat, 500))
	}
}

// recordCounts keeps the round's deterministic counts, taken from its first
// timed solve.
func (r *result) recordCounts(s sample) {
	st := s.stats[0]
	r.engine = st.Engine
	var modeled, msgs, words float64
	for _, e := range s.stats {
		modeled = max(modeled, 1e3*e.ModeledSeconds(mcmdist.EdisonXC30))
		for _, cs := range e.PerRank {
			msgs += float64(cs.Msgs)
			words += float64(cs.Words)
		}
	}
	r.round.add("costmodel.modeled_ms", modeled)
	r.round.add("mpi.msgs", msgs)
	r.round.add("mpi.words", words)
	r.round.add("cardinality", float64(st.Cardinality))
	r.round.add("core.iterations", float64(st.Iterations))
	r.round.add("core.phases", float64(st.Phases))
	r.round.add("core.pull_iterations", float64(st.PullIterations))
	r.round.add("core.augmented_paths", float64(st.AugmentedPaths))
	if s.rec != nil {
		r.round.add("core.checkpoint_bytes", float64(s.rec.CheckpointBytes))
		r.round.add("core.resumed_phase", float64(s.rec.ResumedPhase))
	}
}

// wallOps are the Table I primitives of Stats.WallByOp.
var wallOps = []string{"init", "spmv", "select", "invert", "prune", "augment", "other"}

// recordSolve keeps one timed solve's per-layer times. On tcp every endpoint
// reports its own rank, so each time is the maximum over endpoints.
func (r *result) recordSolve(s sample) {
	r.solve.add("latency_ms", ms(s.latency))
	r.solve.add("cycle_s", s.cycle.Seconds())
	var attributed, commTotal, commExposed float64
	for _, op := range wallOps {
		var v float64
		for _, st := range s.stats {
			v = max(v, ms(st.WallByOp[op]))
		}
		r.solve.add("core."+op+"_ms", v)
		attributed += v
	}
	for _, st := range s.stats {
		var total, exposed float64
		for _, ct := range st.CommTimeByOp {
			total += ms(ct.Total)
			exposed += ms(ct.Exposed)
		}
		commTotal, commExposed = max(commTotal, total), max(commExposed, exposed)
	}
	r.solve.add("core.unattributed_ms", ms(s.latency)-attributed)
	r.solve.add("mpi.comm_total_ms", commTotal)
	r.solve.add("mpi.comm_exposed_ms", commExposed)
	switch r.w.kind {
	case tcp:
		r.solve.add("tcpnet.bootstrap_ms", ms(s.boot))
		r.solve.add("tcpnet.close_ms", ms(s.close))
	case recoverable:
		r.solve.add("core.checkpoint_ms", ms(s.rec.CheckpointWall))
	}
}

// tracePass runs, off the untraced clock, the in-process baseline solves
// and the traced solves of one round. SolveRecoverable does not take
// Options.Observe, so road-recover has no traced solves.
func (r *result) tracePass(in *instance, untracedP50 float64) {
	w := r.w
	if w.kind != inproc {
		for i := 0; i < baselinePerRound; i++ {
			r.attempted++
			m, d, err := w.reference(in)
			if err == nil && !sameMatching(m, in.ref) {
				err = fmt.Errorf("in-process baseline differs from the reference")
			}
			if err != nil {
				r.fail(fmt.Errorf("%s: %w", w.name, err))
				continue
			}
			r.solve.add("baseline_ms", ms(d))
		}
	}
	if w.kind == recoverable {
		return
	}
	var lat []float64
	for i := 0; i < tracedPerRound; i++ {
		s := w.solve(in, &mcmdist.Observe{Spans: true})
		if !r.checked(in, s) {
			continue
		}
		lat = append(lat, ms(s.latency))
		if err := r.fold(s.stats[0].Obs); err != nil {
			r.fail(fmt.Errorf("%s: %w", w.name, err))
		}
	}
	if len(lat) > 0 {
		r.round.add("obs.trace_overhead_pct", 100*(percentile(lat, 500)/untracedP50-1))
	}
}

// fold folds one traced solve's span trace into per-layer times. A trace
// whose rings overwrote spans is incomplete, so it is counted but not folded.
func (r *result) fold(rep *mcmdist.ObsReport) error {
	if rep == nil {
		return fmt.Errorf("traced solve returned no observations")
	}
	dropped := rep.DroppedSpans()
	r.traced.add("obs.dropped_spans", float64(dropped))
	if dropped > 0 {
		return nil
	}
	var buf bytes.Buffer
	if err := rep.WriteTrace(&buf); err != nil {
		return err
	}
	f, err := foldTrace(buf.Bytes())
	if err != nil {
		return err
	}
	r.traced.add("spmv.expand_ms", f.self["spmv.expand"])
	r.traced.add("spmv.fold_ms", f.self["spmv.fold"])
	r.traced.add("spmv.local_ms", f.self["spmv"])
	r.traced.add("dvec.gather_ms", f.self["dvec.gather"])
	for _, c := range []string{"allgatherv", "alltoallv", "allreduce", "rma"} {
		r.traced.add("mpi."+c+"_ms", f.inFlight[c])
	}
	r.traced.add("mpi.collectives", float64(f.collectives))
	r.traced.add("obs.unattributed_pct", f.unattributedPct)
	return nil
}

// percentile returns the nearest-rank percentile of xs at perMille/1000
// (500 is the median), or 0 for no samples.
func percentile(xs []float64, perMille int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	k := (perMille*len(s)+999)/1000 - 1
	return s[max(k, 0)]
}

// tailPercentile returns, in per mille, the highest of p90, p99 and p99.9
// that leaves at least ten of n samples beyond it, or 0 when none does.
func tailPercentile(n int) int {
	best := 0
	for _, pm := range []int{900, 990, 999} {
		if n-(pm*n+999)/1000 >= 10 {
			best = pm
		}
	}
	return best
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// ratio is a/b, or 0 when b is 0, so a workload without a layer reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
