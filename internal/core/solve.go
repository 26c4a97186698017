package core

import (
	"fmt"
	"sync"

	"mcmdist/internal/grid"
	"mcmdist/internal/matching"
	"mcmdist/internal/mpi"
	"mcmdist/internal/rmat"
	"mcmdist/internal/rt"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

// Result reports a completed distributed matching run.
type Result struct {
	// Matching holds the final mate vectors in the caller's (unpermuted)
	// index space.
	Matching *matching.Matching
	// Stats is the rank-maximum merge of per-rank measurements with the
	// SPMD counters (phases, iterations, cardinality).
	Stats *Stats
	// PerRank holds every rank's final cumulative communication meter.
	PerRank []mpi.Meter
	// PerRankComm holds every rank's split-phase communication-time ledger:
	// total request-in-flight wall time vs the exposed part the rank
	// actually spent blocked. The gap is the latency hidden behind local
	// computation by the overlapped schedules.
	PerRankComm []mpi.CommTimes
	// Procs and Threads echo the effective configuration.
	Procs, Threads int
}

// Solve computes a maximum cardinality matching of the bipartite graph a on
// cfg.Procs simulated distributed-memory ranks. It distributes the matrix on
// a square process grid, runs the configured maximal-matching initializer
// and then MCM-DIST, and returns the matching with run statistics.
func Solve(a *spmat.CSC, cfg Config) (*Result, error) {
	return SolveOn(nil, a, cfg)
}

// SolveOn is Solve over an explicit transport endpoint, the entry point that
// lets one solve span OS processes. Every participating process calls it
// with its own endpoint and a bit-identical (a, cfg) pair: distribution,
// permutation and seeding are deterministic, so each process builds exactly
// the blocks of the ranks its endpoint hosts (paper Section IV-A: a process
// holds only its own submatrices) and runs only those ranks. The final
// mate vectors are allgathered, so every process returns the full Matching;
// Stats, PerRank and PerRankComm cover only locally hosted ranks (remote
// entries stay zero — observability is per-process, see docs/TRANSPORT.md).
// A nil tr means the in-process backend hosting all cfg.Procs ranks, which
// is exactly Solve.
func SolveOn(tr mpi.Transport, a *spmat.CSC, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	pr, pc, err := cfg.gridShape()
	if err != nil {
		return nil, err
	}
	cfg.Procs = pr * pc
	if tr == nil {
		tr = mpi.NewInproc(cfg.Procs)
	}
	cfg, d, err := distribute(tr, a, cfg, pr, pc)
	if err != nil {
		return nil, err
	}
	res, err := runAttemptGrid(tr, pr, pc, d.work.NRows, d.work.NCols, d.blocks, cfg, nil)
	if err != nil {
		return nil, err
	}
	res.Matching = d.unpermute(res.Matching)
	return res, nil
}

// distributed is one solve's input as its ranks see it: the matrix in the
// index space they work in, the blocks of A of the ranks hosted
// here, and the permutations that map a result back (nil when off).
type distributed struct {
	work             *spmat.CSC
	blocks           [][]*spmat.LocalMatrix
	rowPerm, colPerm []int
}

// permute applies the random row/column permutation of Section IV-A to a
// when cfg.Permute is set; no blocks are built yet.
func permute(a *spmat.CSC, cfg Config) *distributed {
	d := &distributed{work: a}
	if cfg.Permute {
		d.rowPerm = rmat.RandomPermutation(a.NRows, cfg.Seed*2+1)
		d.colPerm = rmat.RandomPermutation(a.NCols, cfg.Seed*2+2)
		d.work = a.Permute(d.rowPerm, d.colPerm)
	}
	return d
}

// distribute prepares a for a pr x pc solve on tr: the permutation, the
// engine pinned (the resolution is deterministic from SPMD-replicated
// inputs, so every process derives the same choice and checkpoint hashes
// see the concrete name), and the blocks of the ranks tr hosts. Blocks of
// ranks hosted elsewhere stay nil.
func distribute(tr mpi.Transport, a *spmat.CSC, cfg Config, pr, pc int) (Config, *distributed, error) {
	d := permute(a, cfg)
	cfg, err := ResolveEngineConfig(cfg, d.work)
	if err != nil {
		return cfg, nil, err
	}
	if err := checkWorldSize(tr, cfg.Procs); err != nil {
		return cfg, nil, err
	}
	d.blocks = spmat.DistributeRanks(d.work, pr, pc, tr.LocalRanks())
	return cfg, d, nil
}

// unpermute maps a matching of P·A·Q back to A's index space: if row i was
// sent to rowPerm[i] and column j to colPerm[j], then the matching of the
// permuted matrix at (rowPerm[i], colPerm[j]) corresponds to (i, j).
func (d *distributed) unpermute(m *matching.Matching) *matching.Matching {
	if d.rowPerm == nil {
		return m
	}
	out := matching.NewMatching(len(d.rowPerm), len(d.colPerm))
	colInv := make([]int, len(d.colPerm))
	for j, pj := range d.colPerm {
		colInv[pj] = j
	}
	for i, pi := range d.rowPerm {
		pj := m.MateR[pi]
		if pj == semiring.None {
			continue
		}
		out.Match(i, colInv[pj])
	}
	return out
}

// SolveEndpoints runs one solve over every endpoint of a pre-built
// transport set concurrently in this process — the loopback form of a
// multi-process deployment, used by tests and the conformance suite. It
// returns one Result per endpoint, in eps order, and the first error. The
// caller retains ownership of the endpoints (and must Close them).
func SolveEndpoints(eps []mpi.Transport, a *spmat.CSC, cfg Config) ([]*Result, error) {
	results, errs := onEndpoints(eps, func(ep mpi.Transport) (*Result, error) {
		return SolveOn(ep, a, cfg)
	})
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// onEndpoints runs fn on every endpoint concurrently and returns the
// results and errors in eps order. The first endpoint runs on the calling
// goroutine, so a one-endpoint world (the in-process backend) starts no
// goroutine and a driver-side panic reaches the caller's recover.
func onEndpoints(eps []mpi.Transport, fn func(mpi.Transport) (*Result, error)) ([]*Result, []error) {
	results := make([]*Result, len(eps))
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for i := 1; i < len(eps); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = fn(eps[i])
		}(i)
	}
	if len(eps) > 0 {
		results[0], errs[0] = fn(eps[0])
	}
	wg.Wait()
	return results, errs
}

// runAttemptGrid runs one complete solve attempt on pre-distributed blocks:
// launch the world (under the configured fault plane and watchdog), restore
// or initialize the mate vectors, run the MCM phases, gather the result and
// merge statistics. SolveOn calls it once; the recovery loop calls it per
// attempt, setting cfg.Resume between attempts. cfg.Engine must already be
// resolved (ResolveEngineConfig), and blocks must hold the entries
// of every rank tr hosts. Only tr's locally hosted ranks run, and the mate
// vectors are captured on the lowest of them (they are allgathered, so
// every rank holds the full vectors).
func runAttemptGrid(tr mpi.Transport, pr, pc, n1, n2 int, blocks [][]*spmat.LocalMatrix,
	cfg Config, ctxs []*rt.Ctx) (*Result, error) {
	eng, ok := EngineByName(cfg.Engine)
	if !ok {
		return nil, fmt.Errorf("core: engine %q is not registered (have %v)", cfg.Engine, EngineNames())
	}
	if err := checkWorldSize(tr, cfg.Procs); err != nil {
		return nil, err
	}
	localRoot := tr.LocalRanks()[0]
	obsAttach(tr, cfg.Obs)
	perRankStats := make([]*Stats, cfg.Procs)
	perRankMeter := make([]mpi.Meter, cfg.Procs)
	perRankComm := make([]mpi.CommTimes, cfg.Procs)
	var mateR, mateC []int64

	w, err := mpi.RunTransport(mpi.RunConfig{Faults: cfg.Fault, WatchdogTimeout: cfg.WatchdogTimeout, Compress: cfg.Compress},
		tr, func(c *mpi.Comm) error {
			if cfg.Obs != nil {
				// Capture the rank's final meter on every exit path — success
				// or unwind — so shipped observations and flight dumps carry
				// what the rank had moved when the world ended.
				defer func() {
					cfg.Obs.SetRankMeter(c.Rank(), obsMeterPoints(c.MeterSnapshot()))
				}()
			}
			ctx := newRankCtx(c, cfg, ctxs, c.Rank())
			if ctxs == nil {
				defer ctx.Close() // fresh context: release the worker pool with the rank
			}
			g, err := grid.NewWithRT(c, pr, pc, ctx)
			if err != nil {
				return err
			}
			s := NewSolver(g, cfg, n1, n2, blocks[g.MyRow][g.MyCol])
			mater, matec, err := s.InitOrRestore()
			if err != nil {
				return err
			}
			if err := s.RunEngine(eng, mater, matec); err != nil {
				return err
			}

			fullR := mater.Gather()
			fullC := matec.Gather()
			if c.Rank() == localRoot {
				mateR, mateC = fullR, fullC
			}
			perRankStats[c.Rank()] = s.Stats
			perRankMeter[c.Rank()] = s.gatherMeter()
			perRankComm[c.Rank()] = c.CommTimes()
			return nil
		})
	if w != nil {
		cfg.Obs.AddEvents(w.ObsEvents())
	}
	if err != nil {
		return nil, err
	}
	obsFinish(tr, cfg.Obs)

	// Merge the locally hosted ranks' stats (on the in-process backend that
	// is every rank; remote ranks report in their own process).
	var merged *Stats
	for _, st := range perRankStats {
		if st == nil {
			continue
		}
		if merged == nil {
			merged = st
			continue
		}
		merged.MergeMax(st)
	}
	return &Result{
		Matching:    &matching.Matching{MateR: mateR, MateC: mateC},
		Stats:       merged,
		PerRank:     perRankMeter,
		PerRankComm: perRankComm,
		Procs:       cfg.Procs,
		Threads:     cfg.Threads,
	}, nil
}

func checkWorldSize(tr mpi.Transport, procs int) error {
	if tr.WorldSize() != procs {
		return fmt.Errorf("core: transport world size %d != configured procs %d", tr.WorldSize(), procs)
	}
	return nil
}

// SolveSerialEquivalent returns the oracle cardinality via Hopcroft–Karp,
// for callers wanting a one-line cross-check of Solve's result.
func SolveSerialEquivalent(a *spmat.CSC) int {
	return matching.HopcroftKarp(a, nil).Cardinality()
}

// String renders a compact one-line summary of the result.
func (r *Result) String() string {
	return fmt.Sprintf("|M|=%d (init %d) phases=%d iters=%d p=%d t=%d",
		r.Stats.Cardinality, r.Stats.InitCardinality, r.Stats.Phases,
		r.Stats.Iterations, r.Procs, r.Threads)
}

// RunDistributed launches side*side ranks on a square grid over
// pre-distributed matrix blocks and invokes fn with each rank's solver.
// It is the low-level entry point used by benchmarks and by callers that
// manage mate vectors themselves; Solve wraps it with distribution and
// result gathering.
func RunDistributed(side, n1, n2 int, blocks [][]*spmat.LocalMatrix,
	cfg Config, fn func(*Solver) error) error {
	return RunDistributedGrid(side, side, n1, n2, blocks, cfg, fn)
}

// RunDistributedGrid is RunDistributed for an arbitrary pr x pc grid; blocks
// must be distributed as pr x pc.
func RunDistributedGrid(pr, pc, n1, n2 int, blocks [][]*spmat.LocalMatrix,
	cfg Config, fn func(*Solver) error) error {
	return RunDistributedGridCtx(pr, pc, n1, n2, blocks, cfg, nil, fn)
}

// RunDistributedGridCtx is RunDistributedGrid with caller-supplied runtime
// contexts, one per rank (indexed by world rank). A session that solves
// repeatedly on the same distributed graph passes the same contexts every
// time, so the arena and scratch warmed up by one solve serve the next. A
// nil ctxs builds fresh contexts, honoring cfg.DisableReuse.
func RunDistributedGridCtx(pr, pc, n1, n2 int, blocks [][]*spmat.LocalMatrix,
	cfg Config, ctxs []*rt.Ctx, fn func(*Solver) error) error {
	w, err := mpi.RunWith(mpi.RunConfig{Faults: cfg.Fault, WatchdogTimeout: cfg.WatchdogTimeout, Compress: cfg.Compress},
		pr*pc, func(c *mpi.Comm) error {
			ctx := newRankCtx(c, cfg, ctxs, c.Rank())
			if ctxs == nil {
				// Fresh context: its worker pool dies with the rank. A caller-
				// supplied context keeps its pool warm across solves; the caller
				// releases it (e.g. DistributedGraph.Close).
				defer ctx.Close()
			}
			g, err := grid.NewWithRT(c, pr, pc, ctx)
			if err != nil {
				return err
			}
			s := NewSolver(g, cfg, n1, n2, blocks[g.MyRow][g.MyCol])
			return fn(s)
		})
	if w != nil {
		cfg.Obs.AddEvents(w.ObsEvents())
	}
	return err
}

// newRankCtx picks the runtime context for one rank: the caller-supplied
// one when present, otherwise a fresh context that is enabled or disabled
// per cfg.DisableReuse.
func newRankCtx(c *mpi.Comm, cfg Config, ctxs []*rt.Ctx, rank int) *rt.Ctx {
	var ctx *rt.Ctx
	switch {
	case ctxs != nil:
		ctx = ctxs[rank]
	case cfg.DisableReuse:
		ctx = rt.NewDisabled(c)
	default:
		ctx = rt.New(c)
	}
	ctx.SetOverlap(!cfg.DisableOverlap)
	// Attach (or, for a reused session context, detach) the rank's span
	// tracer on both the runtime context (op spans via Track) and the comm
	// (collective/RMA/fault spans inside internal/mpi).
	tr := cfg.Obs.Tracer(c.Rank())
	ctx.SetTracer(tr)
	c.SetTracer(tr)
	return ctx
}
