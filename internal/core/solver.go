package core

import (
	"mcmdist/internal/dvec"
	"mcmdist/internal/grid"
	"mcmdist/internal/mpi"
	"mcmdist/internal/obs"
	"mcmdist/internal/parallel"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

// Solver is one rank's handle on a distributed matching computation: its
// grid position, its local block of A, the vector layouts, and the per-rank
// statistics.
type Solver struct {
	G    *grid.Grid
	Cfg  Config
	A    *spmat.LocalMatrix // my block of A (global n1 x n2)
	N1   int                // global rows |R|
	N2   int                // global columns |C|
	RowL dvec.Layout        // row-vertex vectors (length n1, row-aligned)
	ColL dvec.Layout        // column-vertex vectors (length n2, col-aligned)

	// rowAdj is the local block in row-major (CSR) form, built lazily for
	// the bottom-up SpMV direction (see direction.go).
	rowAdj *spmat.CSC

	// live lists, col-aligned and sorted, the columns of my ColL range that
	// have at least one edge, valued by their degree; nil until liveCols
	// first runs. Held for the solve.
	live *dvec.SparseInt

	Stats *Stats
	tr    *tracker

	// threadBase is the worker pool's cumulative telemetry at solver
	// construction, so this solve's Stats report a delta even when the pool
	// is a long-lived session context's.
	threadBase parallel.Stats

	// rec is the rank's iteration time-series recorder (nil = off) and
	// iterBase the counter snapshot taken at the top of the current
	// iteration (see obs.go).
	rec      *obs.IterRecorder
	iterBase iterBaseline
}

// NewSolver builds a rank's solver from its pre-distributed block: a is the
// rank's (gridRow, gridCol) block of A, as built by spmat.DistributeRanks.
func NewSolver(g *grid.Grid, cfg Config, n1, n2 int, a *spmat.LocalMatrix) *Solver {
	st := newStats()
	cfg = cfg.withDefaults()
	// Size the rank's persistent worker pool to the configured thread count:
	// this is where "hybrid MPI+OpenMP" becomes real rather than modeled.
	g.RT.EnsureThreads(cfg.Threads)
	return &Solver{
		G:          g,
		Cfg:        cfg,
		A:          a,
		N1:         n1,
		N2:         n2,
		RowL:       dvec.NewLayout(g, n1, dvec.RowAligned),
		ColL:       dvec.NewLayout(g, n2, dvec.ColAligned),
		Stats:      st,
		tr:         &tracker{ctx: g.RT, stats: st},
		threadBase: g.RT.ThreadStats(),
		rec:        cfg.Obs.Recorder(g.World.WorldRank()),
	}
}

// captureThreadStats snapshots the worker pool's telemetry delta since
// solver construction into this solve's Stats. Called at the end of every
// top-level algorithm entry point; later calls simply extend the delta.
func (s *Solver) captureThreadStats() {
	s.Stats.Threading = s.G.RT.ThreadStats().Sub(s.threadBase)
}

// fillFiltered runs the classic two-pass parallel compaction: count the
// selected indices per chunk, prefix-sum the counts, then fill each chunk's
// output run — emitting indices in increasing order without a serial append
// pass. pred(i) decides selection; emit(o, i) writes element i at output
// slot o. Returns the number selected.
func fillFiltered(pool *parallel.Pool, n int, pred func(i int) bool,
	alloc func(total int), emit func(o, i int)) int {
	bounds := pool.Chunks(n, parallel.DefaultMinChunk)
	w := len(bounds) - 1
	offsets := make([]int, w+1)
	pool.ForChunked(n, parallel.DefaultMinChunk, func(wi, lo, hi int) {
		c := 0
		for i := lo; i < hi; i++ {
			if pred(i) {
				c++
			}
		}
		offsets[wi+1] = c
	})
	for i := 1; i <= w; i++ {
		offsets[i] += offsets[i-1]
	}
	total := offsets[w]
	alloc(total)
	pool.ForChunked(n, parallel.DefaultMinChunk, func(wi, lo, hi int) {
		o := offsets[wi]
		for i := lo; i < hi; i++ {
			if pred(i) {
				emit(o, i)
				o++
			}
		}
	})
	return total
}

// liveCols returns the columns of my ColL range that have at least one
// edge: the residual degrees over empty matched sets. The degree
// initializers' first round counts exactly that and keeps it (degreeInit);
// InitNone, greedy and a restored attempt count it here on first use.
// Collective on that first call.
func (s *Solver) liveCols() *dvec.SparseInt {
	if s.live == nil {
		s.live = s.residualColDegrees(s.newMatchedSets(), dvec.HoldSparseInt(s.ColL))
	}
	return s.live
}

// unmatchedColFrontier builds the initial frontier of a phase in dst's
// storage: every unmatched column that has an edge, with itself as parent
// and root (Algorithm 2, lines 6-8). An edgeless column grows no tree, so
// leaving it out changes no search. Both the scan of the live columns and
// the ordered fill run across the rank's worker pool (the paper's OpenMP
// loops) via the two-pass compaction. Collective on the solve's first call.
func (s *Solver) unmatchedColFrontier(matec *dvec.Dense, dst *dvec.SparseV) *dvec.SparseV {
	live := s.liveCols().Idx
	var f *dvec.SparseV
	lo := s.ColL.MyRange().Lo
	fillFiltered(s.G.RT.Pool(), len(live),
		func(k int) bool { return matec.Local[live[k]-lo] == semiring.None },
		func(total int) { f = dvec.Reuse(dst, s.ColL, total) },
		func(o, k int) {
			f.Idx[o] = live[k]
			f.Val[o] = semiring.Self(int64(live[k]))
		})
	s.G.World.AddWork(len(live))
	return f
}

// countUnmatched returns the global number of unmatched entries of a mate
// vector, with the local scan multithreaded. Collective.
func (s *Solver) countUnmatched(mate *dvec.Dense) int {
	local := s.G.RT.Pool().MapReduce(len(mate.Local), func(lo, hi int) int64 {
		var n int64
		for i := lo; i < hi; i++ {
			if mate.Local[i] == semiring.None {
				n++
			}
		}
		return n
	}, func(a, b int64) int64 { return a + b })
	s.G.World.AddWork(len(mate.Local))
	return int(s.G.World.Allreduce(mpi.OpSum, local))
}
