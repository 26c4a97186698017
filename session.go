package mcmdist

import (
	"fmt"
	"time"

	"mcmdist/internal/core"
	"mcmdist/internal/dvec"
	"mcmdist/internal/grid"
	"mcmdist/internal/obs"
	"mcmdist/internal/rt"
	"mcmdist/internal/spmat"
)

// DistributedGraph is a graph pre-distributed onto a fixed process grid.
// Distribution (blocking A across the grid) is the expensive setup
// step; a DistributedGraph pays it once and can then run many matching
// computations — the usage pattern of a sparse solver that factorizes many
// matrices with one nonzero pattern, and the "already distributed" premise
// of the paper's Section VI-E.
//
// Each rank's runtime context (buffer arena, solve-lifetime store of the
// mate, parent, path and frontier vectors, dense scratch, worker pool) is
// also cached here and rebound to every solve's fresh world, so repeated
// solves run allocation-quiet: the buffers grown by the first solve serve
// all later ones. Rebinding hands back what the previous solve held even
// when it unwound, so the retry of a crashed SolveRecoverable attempt runs
// warm too. Like the rest of the struct this is safe for sequential reuse,
// not for concurrent solves on one DistributedGraph.
//
// A DistributedGraph always solves on the in-process transport backend —
// the cached contexts assume one address space — and so holds the blocks of
// every rank. To span OS processes, use MaximumMatchingOn with a Transport
// endpoint instead: each process then builds, deterministically, only the
// blocks of the ranks it hosts (see docs/TRANSPORT.md).
type DistributedGraph struct {
	g      *Graph
	procs  int
	side   int
	blocks [][]*spmat.LocalMatrix
	ctxs   []*rt.Ctx // per-rank runtime contexts, reused across solves
}

// Distribute blocks the graph onto procs simulated ranks (a perfect
// square). The returned DistributedGraph is immutable and safe for
// sequential reuse across solves.
func Distribute(g *Graph, procs int) (dg *DistributedGraph, err error) {
	defer guard(&err)
	if procs <= 0 {
		procs = 1
	}
	side := grid.Square(procs)
	if side*side != procs {
		return nil, fmt.Errorf("mcmdist: Procs = %d is not a perfect square", procs)
	}
	ctxs := make([]*rt.Ctx, procs)
	for r := range ctxs {
		ctxs[r] = rt.New(nil) // bound to each solve's communicator at run time
	}
	blocks := spmat.DistributeRanks(g.a, side, side, nil)
	return &DistributedGraph{
		g:      g,
		procs:  procs,
		side:   side,
		blocks: blocks,
		ctxs:   ctxs,
	}, nil
}

// Close releases the per-rank runtime contexts' worker pools. The pools'
// goroutines park between solves (that is what makes repeated solves cheap)
// but are never garbage collected, so a DistributedGraph that ran solves
// with Threads > 1 should be Closed when no more solves are coming. Safe to
// call more than once; the graph remains usable afterwards — the next solve
// simply re-parks fresh workers.
func (dg *DistributedGraph) Close() {
	for _, ctx := range dg.ctxs {
		ctx.Close()
	}
}

// config converts opts for a solve on the distribution's fixed grid: Procs
// comes from the distribution, and a grid set in opts must be the
// distribution's own.
func (dg *DistributedGraph) config(opts Options) (core.Config, error) {
	if (opts.GridRows != 0 || opts.GridCols != 0) && (opts.GridRows != dg.side || opts.GridCols != dg.side) {
		return core.Config{}, fmt.Errorf("mcmdist: GridRows x GridCols = %d x %d, but the graph is distributed on %d x %d",
			opts.GridRows, opts.GridCols, dg.side, dg.side)
	}
	opts.Procs, opts.GridRows, opts.GridCols = dg.procs, 0, 0
	return opts.toConfig()
}

// MaximumMatching runs MCM-DIST on the pre-distributed blocks. opts.Procs
// and opts.Permute are ignored (fixed at distribution time; permute before
// calling Distribute when load balancing is wanted); opts.GridRows and
// opts.GridCols, when set, must name the distribution's grid.
func (dg *DistributedGraph) MaximumMatching(opts Options) (m *Matching, st *Stats, err error) {
	defer guard(&err)
	cfg, err := dg.config(opts)
	if err != nil {
		return nil, nil, err
	}
	cfg.Obs = opts.Observe.collector(dg.procs)
	return dg.solve(cfg, (*core.Solver).Solve)
}

// MaximalMatchingDistributed runs only the distributed maximal-matching
// initializer (the paper's companion algorithms [21]): a fast 1/2-or-better
// approximation without the MCM phases.
func (dg *DistributedGraph) MaximalMatchingDistributed(init Initializer, threads int) (m *Matching, st *Stats, err error) {
	defer guard(&err)
	cfg, err := dg.config(Options{Threads: threads, Init: init})
	if err != nil {
		return nil, nil, err
	}
	if cfg.Init == core.InitNone {
		return nil, nil, fmt.Errorf("mcmdist: maximal matching needs an initializer other than NoInit")
	}
	return dg.solve(cfg, func(s *core.Solver) (mater, matec *dvec.Dense, err error) {
		mater, matec = s.MaximalInit()
		s.Stats.Cardinality = s.Stats.InitCardinality
		return mater, matec, nil
	})
}

// solve runs step on every rank of the distribution, reusing the cached
// runtime contexts, and gathers the result.
func (dg *DistributedGraph) solve(cfg core.Config, step func(*core.Solver) (mater, matec *dvec.Dense, err error)) (*Matching, *Stats, error) {
	res, err := core.SolveBlocks(nil, dg.side, dg.side, dg.g.Rows(), dg.g.Cols(), dg.blocks, cfg, dg.ctxs, step)
	if err != nil {
		return nil, nil, err
	}
	return fromInternal(res.Matching), statsFromCore(res, cfg.Obs), nil
}

// IsMaximal reports whether m is a valid matching of g (see Verify) in
// which no edge joins two unmatched vertices; an invalid m is not maximal.
func (g *Graph) IsMaximal(m *Matching) bool {
	return g.valid(m) && m.internal().IsMaximal(g.a)
}

// statsFromCore converts a solve's merged core stats into the public form,
// with the solve's observations from col (nil when not observed).
func statsFromCore(res *core.Result, col *obs.Collector) *Stats {
	cs := res.Stats
	st := &Stats{
		Engine:                cs.Engine,
		Cardinality:           cs.Cardinality,
		InitCardinality:       cs.InitCardinality,
		Phases:                cs.Phases,
		Iterations:            cs.Iterations,
		PushIterations:        cs.PushIterations,
		PullIterations:        cs.PullIterations,
		AugmentedPaths:        cs.AugmentedPaths,
		LevelParallelAugments: cs.LevelParallelAugments,
		PathParallelAugments:  cs.PathParallelAugments,
		Procs:                 res.Procs,
		Threads:               res.Threads,
		Checkpoints:           cs.Checkpoints,
		CheckpointBytes:       cs.CheckpointBytes,
		CheckpointWall:        cs.CheckpointWall,
		WallByOp:              make(map[string]time.Duration),
		CommByOp:              make(map[string]CommStats),
		CommTimeByOp:          make(map[string]CommTime),
		PerRank:               res.PerRank,
	}
	for op, d := range cs.Wall {
		st.WallByOp[string(op)] = d
	}
	for op, m := range cs.Meter {
		st.CommByOp[string(op)] = m
	}
	for op, ct := range cs.Comm {
		st.CommTimeByOp[string(op)] = ct
	}
	st.Obs = newObsReport(col)
	return st
}
