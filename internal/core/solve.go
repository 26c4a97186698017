package core

import (
	"fmt"
	"sync"

	"mcmdist/internal/dvec"
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
// Stats and PerRank cover only locally hosted ranks (remote
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
	d, err := distribute(tr, a, cfg, pr, pc)
	if err != nil {
		return nil, err
	}
	res, err := SolveBlocks(tr, pr, pc, d.work.NRows, d.work.NCols, d.blocks, cfg, nil, (*Solver).Solve)
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

// distribute prepares a for a pr x pc solve on tr after validating cfg: the
// permutation and the blocks of the ranks tr hosts. Blocks of ranks hosted
// elsewhere stay nil.
func distribute(tr mpi.Transport, a *spmat.CSC, cfg Config, pr, pc int) (*distributed, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkWorldSize(tr, cfg.Procs); err != nil {
		return nil, err
	}
	d := permute(a, cfg)
	d.blocks = spmat.DistributeRanks(d.work, pr, pc, tr.LocalRanks())
	return d, nil
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

// SolveBlocks runs one solve on pre-distributed blocks: step on every rank
// tr hosts, then the gather of the mate vectors step returns on the lowest
// hosted rank and the merge of the hosted ranks' Stats and meters. It is
// the only gather of a solve's result: SolveOn calls it once, the recovery
// loop once per attempt (setting cfg.Resume between attempts), and the
// session API once per solve. A nil tr is an in-process world of pr·pc
// ranks; blocks must hold the entries of every rank tr hosts.
// Every rank joins the allgather of the mates, but only the lowest hosted
// rank assembles the full vectors; the other ranks drain their parts and
// keep only their own blocks. Stats and PerRank cover only the hosted ranks
// (on the in-process backend that is every rank; remote ranks report in
// their own process). The vectors a rank held stay with its context until
// the context's next Bind hands them back, whether the rank gathered its
// mates or unwound.
func SolveBlocks(tr mpi.Transport, pr, pc, n1, n2 int, blocks [][]*spmat.LocalMatrix,
	cfg Config, ctxs []*rt.Ctx, step func(*Solver) (mater, matec *dvec.Dense, err error)) (*Result, error) {
	cfg = cfg.withDefaults()
	if tr == nil {
		tr = mpi.NewInproc(pr * pc)
	}
	localRoot := tr.LocalRanks()[0]
	obsAttach(tr, cfg.Obs)
	perRankStats := make([]*Stats, pr*pc)
	perRankMeter := make([]mpi.Meter, pr*pc)
	var mateR, mateC []int64
	err := RunDistributed(tr, pr, pc, n1, n2, blocks, cfg, ctxs, func(s *Solver) error {
		mater, matec, err := step(s)
		if err != nil {
			return err
		}
		r := s.G.World.Rank()
		fullR := mater.Gather(r == localRoot)
		fullC := matec.Gather(r == localRoot)
		if r == localRoot {
			mateR, mateC = fullR, fullC
		}
		perRankStats[r] = s.Stats
		perRankMeter[r] = s.G.World.MeterSnapshot()
		return nil
	})
	if err != nil {
		return nil, err
	}
	obsFinish(tr, cfg.Obs)

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
		Matching: &matching.Matching{MateR: mateR, MateC: mateC},
		Stats:    merged,
		PerRank:  perRankMeter,
		Procs:    pr * pc,
		Threads:  cfg.Threads,
	}, nil
}

// Solve is the step of a maximum matching: restore the mate vectors from
// Cfg.Resume or run the maximal initializer, then run the configured engine.
func (s *Solver) Solve() (mater, matec *dvec.Dense, err error) {
	mater, matec, err = s.InitOrRestore()
	if err != nil {
		return nil, nil, err
	}
	return mater, matec, s.RunEngine(s.Cfg.Engine, mater, matec)
}

func checkWorldSize(tr mpi.Transport, procs int) error {
	if tr.WorldSize() != procs {
		return fmt.Errorf("core: transport world size %d != configured procs %d", tr.WorldSize(), procs)
	}
	return nil
}

// String renders a compact one-line summary of the result.
func (r *Result) String() string {
	return fmt.Sprintf("|M|=%d (init %d) phases=%d iters=%d p=%d t=%d",
		r.Stats.Cardinality, r.Stats.InitCardinality, r.Stats.Phases,
		r.Stats.Iterations, r.Procs, r.Threads)
}

// RunDistributed launches the ranks of a pr x pc grid on tr — nil means an
// in-process world of pr·pc ranks — and invokes fn with each hosted rank's
// solver over blocks distributed as pr x pc. It is the one launcher:
// SolveBlocks adds the result gather, and tests and experiments that manage
// mate vectors themselves call it directly. ctxs supplies one runtime
// context per rank (indexed by world rank): a session that solves
// repeatedly on the same distributed graph passes the same contexts every
// time, so the arena, scratch and store warmed up by one solve serve the
// next. A nil ctxs borrows one context per hosted rank from the process
// (rankCtxs) and gives them back when the world ends, so one-shot solves
// in a process run as warm as a session's from the second on. fn must not
// keep a vector the rank held past its return: a borrowed context may
// serve another solve as soon as RunDistributed returns.
func RunDistributed(tr mpi.Transport, pr, pc, n1, n2 int, blocks [][]*spmat.LocalMatrix,
	cfg Config, ctxs []*rt.Ctx, fn func(*Solver) error) error {
	if tr == nil {
		tr = mpi.NewInproc(pr * pc)
	}
	if err := checkWorldSize(tr, pr*pc); err != nil {
		return err
	}
	borrowed := ctxs == nil
	if borrowed {
		ctxs = make([]*rt.Ctx, pr*pc)
		for _, r := range tr.LocalRanks() {
			ctxs[r] = rankCtxs.Get().(*rt.Ctx)
		}
	}
	w, err := mpi.RunTransport(mpi.RunConfig{Faults: cfg.Fault, WatchdogTimeout: cfg.WatchdogTimeout, Compress: cfg.Compress},
		tr, func(c *mpi.Comm) error {
			// Attach (or detach) the rank's span tracer on both the runtime
			// context (op spans via Track) and the comm (collective, RMA and
			// fault spans inside internal/mpi).
			ctx := ctxs[c.Rank()]
			trc := cfg.Obs.Tracer(c.Rank())
			ctx.SetTracer(trc)
			c.SetTracer(trc)
			g, err := grid.NewWithRT(c, pr, pc, ctx)
			if err != nil {
				return err
			}
			return fn(NewSolver(g, cfg, n1, n2, blocks[g.MyRow][g.MyCol]))
		})
	if w != nil {
		cfg.Obs.AddEvents(w.ObsEvents())
	}
	if borrowed {
		returnRankCtxs(tr.LocalRanks(), ctxs, err == nil)
	}
	return err
}

// rankCtxs lends one-shot solves their per-rank runtime contexts. The GC
// bounds what it keeps, so it needs no size.
var rankCtxs = sync.Pool{New: func() any { return rt.New(nil) }}

// returnRankCtxs ends the borrow of the hosted ranks' contexts: their
// worker goroutines stop and their tracers detach. When the world
// succeeded, each is unbound from it — which takes back the vectors it
// held — and returns to rankCtxs. A failed world's contexts are dropped
// instead: its endpoint may still be bound, and a late RMA from a peer
// could land in a held vector after another solve took it.
func returnRankCtxs(ranks []int, ctxs []*rt.Ctx, ok bool) {
	for _, r := range ranks {
		ctx := ctxs[r]
		ctx.Close()
		ctx.SetTracer(nil)
		if ok {
			ctx.Bind(nil)
			rankCtxs.Put(ctx)
		}
	}
}
