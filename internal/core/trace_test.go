package core

// Trace-correctness tests for the observability plane (ISSUE 5): spans must
// be properly nested per rank, collective spans must rendezvous across ranks
// through shared flow ids, and attaching a collector must not perturb the
// solve (bit-identical mate vectors). A MergeMax regression test pins the
// rank-maximum merge across every Stats category, including the Comm map.

import (
	"sort"
	"testing"
	"time"

	"mcmdist/internal/mpi"
	"mcmdist/internal/obs"
	"mcmdist/internal/rmat"
)

// solveTraced runs one RMAT solve with a span-recording collector attached
// and returns the collector.
func solveTraced(t *testing.T, procs int, cfg Config) *obs.Collector {
	t.Helper()
	a := rmat.MustGenerate(rmat.G500, 8, 8, 5)
	col := obs.NewCollector(procs, obs.Options{Spans: true, TimeSeries: true})
	cfg.Procs = procs
	cfg.Obs = col
	mustSolve(t, a, cfg)
	return col
}

// computeKind reports whether k lives on a rank's compute track, where
// spans must nest properly. Collective and RMA spans live on the separate
// comm track because split-phase requests legitimately straddle op
// boundaries (started inside one op, completed inside a later one).
func computeKind(k obs.Kind) bool {
	switch k {
	case obs.KindSolve, obs.KindPhase, obs.KindIteration, obs.KindOp:
		return true
	}
	return false
}

func TestTraceSpansNestPerRank(t *testing.T) {
	t.Run("mcm", func(t *testing.T) { checkNesting(t, Config{}) })
	t.Run("ss", func(t *testing.T) { checkNesting(t, Config{Engine: EngineBFSSingleSource}) })
}

// TestTimeSeriesEveryEngine checks that every engine records each of its
// iterations in the time-series: rank 0 holds one sample per iteration,
// numbered 1..N, with the pull count matching Stats; every rank agrees with
// rank 0 on the SPMD-replicated fields; and the series ends on the final
// cardinality.
func TestTimeSeriesEveryEngine(t *testing.T) {
	a := rmat.MustGenerate(rmat.G500, 8, 8, 5)
	for _, engine := range EngineNames() {
		t.Run(engine, func(t *testing.T) {
			const procs = 4
			col := obs.NewCollector(procs, obs.Options{TimeSeries: true})
			res := mustSolve(t, a, Config{Procs: procs, Engine: engine, Direction: DirectionAuto, Obs: col})
			samples := col.Recorder(0).Samples()
			if res.Stats.Iterations == 0 || len(samples) != res.Stats.Iterations {
				t.Fatalf("%d rank-0 samples, Stats.Iterations = %d", len(samples), res.Stats.Iterations)
			}
			pulls := 0
			for i, sm := range samples {
				if sm.Iteration != i+1 {
					t.Fatalf("sample %d numbers iteration %d", i, sm.Iteration)
				}
				if sm.Pull {
					pulls++
				}
			}
			if pulls != res.Stats.PullIterations {
				t.Fatalf("%d pull samples, Stats.PullIterations = %d", pulls, res.Stats.PullIterations)
			}
			type spmd struct {
				phase, frontier, newPaths, matched int
				pull                               bool
			}
			key := func(sm obs.IterSample) spmd {
				return spmd{sm.Phase, sm.Frontier, sm.NewPaths, sm.Matched, sm.Pull}
			}
			for r := 1; r < procs; r++ {
				rs := col.Recorder(r).Samples()
				if len(rs) != len(samples) {
					t.Fatalf("rank %d holds %d samples, rank 0 %d", r, len(rs), len(samples))
				}
				for i, sm := range rs {
					if sm.Iteration != samples[i].Iteration || key(sm) != key(samples[i]) {
						t.Fatalf("rank %d sample %d = %+v, rank 0 %+v", r, i, sm, samples[i])
					}
				}
			}
			if last := samples[len(samples)-1]; last.Matched != res.Stats.Cardinality {
				t.Fatalf("last sample Matched = %d, Stats.Cardinality = %d", last.Matched, res.Stats.Cardinality)
			}
		})
	}
}

// checkNesting solves with cfg under a collector and asserts every rank's
// compute-track spans form a proper forest.
func checkNesting(t *testing.T, cfg Config) {
	t.Helper()
	const procs = 4
	col := solveTraced(t, procs, cfg)
	if col.Dropped() != 0 {
		t.Fatalf("ring dropped %d spans at default capacity", col.Dropped())
	}
	for r := 0; r < procs; r++ {
		spans := col.Tracer(r).Spans()
		if len(spans) == 0 {
			t.Fatalf("rank %d recorded no spans", r)
		}
		var solves, phases, iters, ops int
		// Spans are recorded at End, so the ring holds children before
		// their parents. Re-sort into document order (start ascending,
		// longer span first on ties) and run the stack containment check:
		// each span must either start after every open ancestor ended
		// (sibling) or lie fully inside the innermost still-open one.
		type ival struct {
			name       string
			start, end int64
		}
		var ivals []ival
		for _, sp := range spans {
			if !computeKind(sp.Kind) {
				continue
			}
			switch sp.Kind {
			case obs.KindSolve:
				solves++
			case obs.KindPhase:
				phases++
			case obs.KindIteration:
				iters++
			case obs.KindOp:
				ops++
			}
			ivals = append(ivals, ival{sp.Name, sp.Start, sp.Start + sp.Dur})
		}
		sort.Slice(ivals, func(i, j int) bool {
			if ivals[i].start != ivals[j].start {
				return ivals[i].start < ivals[j].start
			}
			return ivals[i].end > ivals[j].end
		})
		var stack []ival
		for _, cur := range ivals {
			for len(stack) > 0 && stack[len(stack)-1].end <= cur.start {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				if cur.end > top.end {
					t.Fatalf("rank %d: span %q [%d,%d) partially overlaps %q [%d,%d)",
						r, cur.name, cur.start, cur.end, top.name, top.start, top.end)
				}
			}
			stack = append(stack, cur)
		}
		if solves != 1 {
			t.Fatalf("rank %d: %d solve spans, want 1", r, solves)
		}
		if phases == 0 || iters == 0 || ops == 0 {
			t.Fatalf("rank %d: phases=%d iters=%d ops=%d, want all > 0", r, phases, iters, ops)
		}
	}
}

func TestTraceFlowPairsAcrossRanks(t *testing.T) {
	const procs = 4
	col := solveTraced(t, procs, Config{})
	type member struct {
		rank int
		name string
	}
	groups := make(map[uint64][]member)
	for r := 0; r < procs; r++ {
		for _, sp := range col.Tracer(r).Spans() {
			if sp.Kind == obs.KindCollective && sp.Flow != 0 {
				groups[sp.Flow] = append(groups[sp.Flow], member{r, sp.Name})
			}
		}
	}
	if len(groups) == 0 {
		t.Fatal("no collective flow groups recorded")
	}
	for id, ms := range groups {
		// Every member of the comm records the same (name, generation)
		// rendezvous: at least two distinct ranks, no rank twice, one name.
		if len(ms) < 2 {
			t.Fatalf("flow %#x has a single member %+v: no rendezvous", id, ms[0])
		}
		seen := map[int]bool{}
		for _, m := range ms {
			if m.name != ms[0].name {
				t.Fatalf("flow %#x mixes ops %q and %q", id, ms[0].name, m.name)
			}
			if seen[m.rank] {
				t.Fatalf("flow %#x has rank %d twice", id, m.rank)
			}
			seen[m.rank] = true
		}
	}
}

// TestTraceBitIdentical checks that attaching the observability plane does
// not perturb the algorithm: the same instance solved with and without a
// collector must produce identical mate vectors, not merely equal
// cardinality.
func TestTraceBitIdentical(t *testing.T) {
	a := rmat.MustGenerate(rmat.G500, 8, 8, 11)
	for _, procs := range []int{1, 4} {
		cfg := Config{Procs: procs, Seed: 3}
		plain := mustSolve(t, a, cfg)
		traced := cfg
		traced.Obs = obs.NewCollector(procs, obs.Options{Spans: true, TimeSeries: true})
		obsRes := mustSolve(t, a, traced)
		for i, v := range plain.Matching.MateR {
			if obsRes.Matching.MateR[i] != v {
				t.Fatalf("procs=%d: MateR[%d] = %d traced, %d plain",
					procs, i, obsRes.Matching.MateR[i], v)
			}
		}
		for j, v := range plain.Matching.MateC {
			if obsRes.Matching.MateC[j] != v {
				t.Fatalf("procs=%d: MateC[%d] = %d traced, %d plain",
					procs, j, obsRes.Matching.MateC[j], v)
			}
		}
	}
}

// TestMergeMaxAllCategories pins the rank-maximum merge across every
// measured category, in particular the per-op Comm ledger map.
func TestMergeMaxAllCategories(t *testing.T) {
	a := newStats()
	a.Wall[OpSpMV] = 10 * time.Millisecond
	a.Meter[OpSpMV] = mpi.Meter{Msgs: 5, Words: 100, Work: 7}
	a.Comm[OpSpMV] = mpi.CommTimes{Total: 8 * time.Millisecond, Exposed: 2 * time.Millisecond}
	a.Checkpoints, a.CheckpointBytes = 1, 100

	b := newStats()
	b.Wall[OpSpMV] = 4 * time.Millisecond
	b.Wall[OpAugment] = 6 * time.Millisecond
	b.Meter[OpSpMV] = mpi.Meter{Msgs: 9, Words: 50, Work: 3}
	b.Comm[OpSpMV] = mpi.CommTimes{Total: 12 * time.Millisecond, Exposed: 1 * time.Millisecond}
	b.Comm[OpAugment] = mpi.CommTimes{Total: 3 * time.Millisecond, Exposed: 3 * time.Millisecond}

	a.MergeMax(b)

	if a.Wall[OpSpMV] != 10*time.Millisecond || a.Wall[OpAugment] != 6*time.Millisecond {
		t.Fatalf("Wall merge wrong: %+v", a.Wall)
	}
	// Meters max element-wise, not whole-struct.
	if m := a.Meter[OpSpMV]; m.Msgs != 9 || m.Words != 100 || m.Work != 7 {
		t.Fatalf("Meter merge wrong: %+v", m)
	}
	// The Comm map must max-merge per key, including keys only one side has.
	if ct := a.Comm[OpSpMV]; ct.Total != 12*time.Millisecond || ct.Exposed != 2*time.Millisecond {
		t.Fatalf("Comm[spmv] merge wrong: %+v", ct)
	}
	if ct := a.Comm[OpAugment]; ct.Total != 3*time.Millisecond || ct.Exposed != 3*time.Millisecond {
		t.Fatalf("Comm[augment] merge wrong: %+v", ct)
	}
	if a.Checkpoints != 1 || a.CheckpointBytes != 100 {
		t.Fatalf("checkpoint merge wrong: %d/%d", a.Checkpoints, a.CheckpointBytes)
	}
}
