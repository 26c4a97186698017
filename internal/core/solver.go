package core

import (
	"mcmdist/internal/dvec"
	"mcmdist/internal/grid"
	"mcmdist/internal/mpi"
	"mcmdist/internal/obs"
	"mcmdist/internal/parallel"
	"mcmdist/internal/rt"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

// countGrain is the minimum expanded (index, 1) pairs per chunk of the
// threaded counting SpMV; below it the multiply runs inline.
const countGrain = 256

// Solver is one rank's handle on a distributed matching computation: its
// grid position, its local blocks of A and Aᵀ, the vector layouts, and the
// per-rank statistics.
type Solver struct {
	G    *grid.Grid
	Cfg  Config
	A    *spmat.LocalMatrix // my block of A (global n1 x n2)
	AT   *spmat.LocalMatrix // my block of Aᵀ (global n2 x n1)
	N1   int                // global rows |R|
	N2   int                // global columns |C|
	RowL dvec.Layout        // row-vertex vectors (length n1, row-aligned)
	ColL dvec.Layout        // column-vertex vectors (length n2, col-aligned)
	// Transpose-side layouts: when multiplying with Aᵀ, row-vertex vectors
	// act as the frontier and must be column-aligned, and vice versa.
	RowTL dvec.Layout // length n1, col-aligned
	ColTL dvec.Layout // length n2, row-aligned

	// rowAdj is the local block in row-major (CSR) form, built lazily for
	// the bottom-up SpMV direction (see direction.go).
	rowAdj *spmat.CSC

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

// NewSolver builds a rank's solver from its pre-distributed blocks: a and at
// are the rank's (gridRow, gridCol) blocks of A and Aᵀ, as built by
// spmat.DistributeRanks.
func NewSolver(g *grid.Grid, cfg Config, n1, n2 int, a, at *spmat.LocalMatrix) *Solver {
	st := newStats()
	cfg = cfg.withDefaults()
	// Size the rank's persistent worker pool to the configured thread count:
	// this is where "hybrid MPI+OpenMP" becomes real rather than modeled.
	g.RT.EnsureThreads(cfg.Threads)
	return &Solver{
		G:          g,
		Cfg:        cfg,
		A:          a,
		AT:         at,
		N1:         n1,
		N2:         n2,
		RowL:       dvec.NewLayout(g, n1, dvec.RowAligned),
		ColL:       dvec.NewLayout(g, n2, dvec.ColAligned),
		RowTL:      dvec.NewLayout(g, n1, dvec.ColAligned),
		ColTL:      dvec.NewLayout(g, n2, dvec.RowAligned),
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

// countMul computes y = Aᵀ·x over the (plus, times=1) counting semiring:
// y[j] is the number of frontier entries adjacent to column-vertex j. The
// frontier x must be col-aligned over rows (RowTL); the result is
// row-aligned over columns (ColTL). Used by the Karp–Sipser and dynamic
// mindegree initializers to maintain residual degrees.
func (s *Solver) countMul(x *dvec.SparseInt) *dvec.SparseInt {
	g := s.G
	ctx := g.RT
	payload := ctx.GetInts(2 * len(x.Idx))
	for _, gi := range x.Idx {
		payload = append(payload, int64(gi), 1)
	}
	slab := g.Col.AllgathervInto(payload, ctx.GetInts(2*len(x.Idx)*g.PR))
	ctx.PutInts(payload)

	// Per-column hit counters in the persistent scratch; the Parent field
	// carries the count, the epoch stamp replaces zero-initialization. Like
	// spmv.Mul, each pool worker counts its run of slab entries into a
	// private shard; integer addition is associative and commutative, so
	// summing the shards gives the serial counts exactly.
	pool := ctx.Pool()
	nent := len(slab) / 2
	width := pool.Width(nent, countGrain)
	shards := ctx.ScratchShards("count.cols", width, s.AT.Rows.Len())
	sc := shards[0]
	if width <= 1 {
		g.World.AddWork(s.countRange(slab, 0, nent, sc))
	} else {
		works := make([]int64, width)
		pool.ForChunked(nent, countGrain, func(w, lo, hi int) {
			works[w] = int64(s.countRange(slab, lo, hi, shards[w]))
		})
		var work int64
		for _, wk := range works {
			work += wk
		}
		g.World.AddWork(int(work))
		pool.For(s.AT.Rows.Len(), func(lo, hi int) {
			for sh := 1; sh < width; sh++ {
				shard := shards[sh]
				for r := lo; r < hi; r++ {
					if !shard.Has(r) {
						continue
					}
					if !sc.Has(r) {
						sc.Set(r, shard.Val[r])
					} else {
						sc.Val[r].Parent += shard.Val[r].Parent
					}
				}
			}
		})
	}
	ctx.PutInts(slab)

	// My block's rows are my grid row's slab of ColTL, which the pc owner
	// ranges split in order: walk them instead of locating each row's owner.
	parts := ctx.GetParts(g.PC)
	for j := range g.PC {
		own := s.ColTL.RangeAt(g.MyRow, j)
		for r := own.Lo - s.AT.Rows.Lo; r < own.Hi-s.AT.Rows.Lo; r++ {
			if sc.Has(r) {
				parts[j] = append(parts[j], int64(s.AT.Rows.Lo+r), sc.Val[r].Parent)
			}
		}
	}
	flat := g.Row.AlltoallvFlat(parts, ctx.GetInts(0))
	ctx.PutParts(parts)
	// Senders from my grid row may count the same column: sum them.
	out := dvec.ReceiveInt(s.ColTL, flat, dvec.Sum)
	g.World.AddWork(out.LocalNnz())
	ctx.PutInts(flat)
	return out
}

// countRange counts slab (index, 1) pairs [lo, hi) into sc's Parent field
// and returns the work performed. Concurrent calls must target distinct
// scratch shards.
func (s *Solver) countRange(slab []int64, lo, hi int, sc *rt.Scratch) int {
	work := 0
	for k := lo; k < hi; k++ {
		lcol := int(slab[2*k]) - s.AT.Cols.Lo
		rows := s.AT.M.FindCol(lcol)
		work += len(rows) + 1
		for _, r := range rows {
			if !sc.Has(r) {
				sc.Set(r, semiring.Vertex{Parent: 1})
			} else {
				sc.Val[r].Parent++
			}
		}
	}
	return work
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

// unmatchedColFrontier builds the initial frontier of a phase: every
// unmatched column with itself as parent and root (Algorithm 2, lines 6-8).
// Both the scan and the ordered fill run across the rank's worker pool (the
// paper's OpenMP loops) via the two-pass compaction.
func (s *Solver) unmatchedColFrontier(matec *dvec.Dense) *dvec.SparseV {
	f := dvec.NewSparseV(s.ColL)
	lo := s.ColL.MyRange().Lo
	fillFiltered(s.G.RT.Pool(), len(matec.Local),
		func(i int) bool { return matec.Local[i] == semiring.None },
		func(total int) {
			f.Idx = make([]int, total)
			f.Val = make([]semiring.Vertex, total)
		},
		func(o, i int) {
			f.Idx[o] = lo + i
			f.Val[o] = semiring.Self(int64(lo + i))
		})
	s.G.World.AddWork(len(matec.Local))
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

// gatherMeter returns this rank's cumulative meter; used by drivers to
// compute modeled times.
func (s *Solver) gatherMeter() mpi.Meter {
	return s.G.World.MeterSnapshot()
}
