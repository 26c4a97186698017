package mcmdist

import (
	"fmt"
	"time"

	"mcmdist/internal/core"
	"mcmdist/internal/grid"
	"mcmdist/internal/matching"
	"mcmdist/internal/mpi"
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
// Each rank's runtime context (buffer arena, dense scratch, per-op ledger)
// is also cached here and rebound to every solve's fresh in-process world,
// so repeated solves run allocation-quiet: the buffers grown by the first
// solve serve all later ones. Like the rest of the struct this is safe for
// sequential reuse, not for concurrent solves on one DistributedGraph.
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

// Procs returns the number of ranks the graph is distributed over.
func (dg *DistributedGraph) Procs() int { return dg.procs }

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

// Graph returns the underlying graph.
func (dg *DistributedGraph) Graph() *Graph { return dg.g }

// MaximumMatching runs MCM-DIST on the pre-distributed blocks. opts.Procs
// and opts.Permute are ignored (fixed at distribution time; permute before
// calling Distribute when load balancing is wanted).
func (dg *DistributedGraph) MaximumMatching(opts Options) (m *Matching, st *Stats, err error) {
	defer guard(&err)
	opts.Procs = dg.procs
	cfg, err := opts.toConfig()
	if err != nil {
		return nil, nil, err
	}
	// Resolve the engine ("auto" via the cost model) once, against the
	// cached distribution, so every rank runs the same concrete engine and
	// Stats/checkpoints name it.
	cfg, err = core.ResolveEngineConfig(cfg, dg.g.a)
	if err != nil {
		return nil, nil, err
	}
	col := opts.Observe.collector(dg.procs)
	opts.Observe.live(col)
	cfg.Obs = col

	perRankStats := make([]*core.Stats, dg.procs)
	perRankMeter := make([]mpi.Meter, dg.procs)
	var mateR, mateC []int64
	err = core.RunDistributedGridCtx(dg.side, dg.side, dg.g.Rows(), dg.g.Cols(), dg.blocks,
		cfg, dg.ctxs, func(s *core.Solver) error {
			mater, matec := s.MaximalInit()
			if err := s.RunEngineByName(cfg.Engine, mater, matec); err != nil {
				return err
			}
			fullR := mater.Gather()
			fullC := matec.Gather()
			if s.G.World.Rank() == 0 {
				mateR, mateC = fullR, fullC
			}
			perRankStats[s.G.World.Rank()] = s.Stats
			perRankMeter[s.G.World.Rank()] = s.G.World.MeterSnapshot()
			return nil
		})
	if err != nil {
		return nil, nil, err
	}

	merged := perRankStats[0]
	for _, cs := range perRankStats[1:] {
		merged.MergeMax(cs)
	}
	m = &Matching{MateR: mateR, MateC: mateC}
	st = statsFromCore(merged, perRankMeter, dg.procs, cfg.Threads)
	st.Obs = newObsReport(col)
	return m, st, nil
}

// MaximalMatchingDistributed runs only the distributed maximal-matching
// initializer (the paper's companion algorithms [21]): a fast 1/2-or-better
// approximation without the MCM phases.
func (dg *DistributedGraph) MaximalMatchingDistributed(init Initializer, threads int) (m *Matching, st *Stats, err error) {
	defer guard(&err)
	opts := Options{Procs: dg.procs, Threads: threads, Init: init}
	cfg, err := opts.toConfig()
	if err != nil {
		return nil, nil, err
	}
	if cfg.Init == core.InitNone {
		return nil, nil, fmt.Errorf("mcmdist: maximal matching needs an initializer other than NoInit")
	}

	perRankStats := make([]*core.Stats, dg.procs)
	perRankMeter := make([]mpi.Meter, dg.procs)
	var mateR, mateC []int64
	err = core.RunDistributedGridCtx(dg.side, dg.side, dg.g.Rows(), dg.g.Cols(), dg.blocks,
		cfg, dg.ctxs, func(s *core.Solver) error {
			mater, matec := s.MaximalInit()
			fullR := mater.Gather()
			fullC := matec.Gather()
			if s.G.World.Rank() == 0 {
				mateR, mateC = fullR, fullC
			}
			s.Stats.Cardinality = s.Stats.InitCardinality
			perRankStats[s.G.World.Rank()] = s.Stats
			perRankMeter[s.G.World.Rank()] = s.G.World.MeterSnapshot()
			return nil
		})
	if err != nil {
		return nil, nil, err
	}
	merged := perRankStats[0]
	for _, cs := range perRankStats[1:] {
		merged.MergeMax(cs)
	}
	m = &Matching{MateR: mateR, MateC: mateC}
	return m, statsFromCore(merged, perRankMeter, dg.procs, cfg.Threads), nil
}

// IsMaximal reports whether no edge of g joins two unmatched vertices.
func (g *Graph) IsMaximal(m *Matching) bool {
	return (&matching.Matching{MateR: m.MateR, MateC: m.MateC}).IsMaximal(g.a)
}

// statsFromCore converts merged per-rank core stats into the public form.
func statsFromCore(cs *core.Stats, perRank []mpi.Meter, procs, threads int) *Stats {
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
		Procs:                 procs,
		Threads:               threads,
		Checkpoints:           cs.Checkpoints,
		CheckpointBytes:       cs.CheckpointBytes,
		CheckpointWall:        cs.CheckpointWall,
		WallByOp:              make(map[string]time.Duration),
		CommByOp:              make(map[string]CommStats),
		CommTimeByOp:          make(map[string]CommTime),
	}
	for op, d := range cs.Wall {
		st.WallByOp[string(op)] = d
	}
	for op, m := range cs.Meter {
		st.CommByOp[string(op)] = CommStats{Msgs: m.Msgs, Words: m.Words, Work: m.Work}
	}
	st.PeakFrontier = cs.PeakFrontier
	st.PeakFrontierIteration = cs.PeakFrontierIteration
	for op, ct := range cs.Comm {
		st.CommTimeByOp[string(op)] = CommTime{Total: ct.Total, Exposed: ct.Exposed}
	}
	for _, m := range perRank {
		st.PerRank = append(st.PerRank, CommStats{Msgs: m.Msgs, Words: m.Words, Work: m.Work})
	}
	return st
}
