package core

import (
	"mcmdist/internal/dvec"
	"mcmdist/internal/mpi"
	"mcmdist/internal/parallel"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmv"
	"slices"
)

// MaximalInit computes the configured distributed maximal matching and
// returns the mate vectors (mater row-aligned, matec col-aligned) with
// semiring.None at unmatched vertices. Collective. These are the
// matrix-algebraic initializers of the paper's prior work [21], compared in
// Fig. 3; all are built from the Table I primitive subset.
func (s *Solver) MaximalInit() (mater, matec *dvec.Dense) {
	mater = dvec.HoldDense(s.RowL, semiring.None)
	matec = dvec.HoldDense(s.ColL, semiring.None)
	s.tr.track(OpInit, func() {
		switch s.Cfg.Init {
		case InitNone:
		case InitGreedy:
			s.greedyInit(mater, matec)
		case InitKarpSipser:
			s.degreeInit(mater, matec, s.karpSipserFrontier())
		default:
			s.degreeInit(mater, matec, s.minDegreeFrontier)
		}
	})
	s.Stats.InitCardinality = s.N2 - s.countUnmatched(matec)
	s.captureThreadStats()
	return mater, matec
}

// greedyRound matches each frontier column (all assumed unmatched) to an
// unmatched row if possible: one SpMV (rows pick a winning column), one
// SELECT (keep unmatched rows), and two INVERTs to deduplicate per column
// and flip the pairs back to rows. Returns the round's new pairs, col-aligned
// (tc) and row-aligned (mr); tc.Nnz() is the number of new matches. The
// round builds no vector of its own: fc is dead once the SpMV returns and
// backs tc, and row, a row vector the caller has finished with, backs the
// SpMV's result and then mr. Collective.
func (s *Solver) greedyRound(mater, matec *dvec.Dense, fc, row *dvec.SparseV, op semiring.AddOp) (tc, mr *dvec.SparseV) {
	fr := spmv.Mul(s.A, fc, op, s.RowL, row)
	fr.Select(mater, unset)
	// One row per column: INVERT by parent keeps the smallest row index.
	tc = fr.InvertParents(s.ColL, fc)
	matec.ScatterParents(tc)
	// Flip (column -> row) pairs to (row -> column) to update mate_r.
	mr = tc.InvertParents(s.RowL, fr)
	mater.ScatterParents(mr)
	return tc, mr
}

// greedyInit runs greedy rounds until no unmatched column can be matched.
// Each round's vectors back the next round's.
func (s *Solver) greedyInit(mater, matec *dvec.Dense) {
	fc, fr := dvec.HoldSparseV(s.ColL), dvec.HoldSparseV(s.RowL)
	for {
		fc = s.unmatchedColFrontier(matec, fc)
		if fc.Nnz() == 0 {
			return
		}
		if tc, _ := s.greedyRound(mater, matec, fc, fr, semiring.MinParent); tc.Nnz() == 0 {
			return
		}
	}
}

// matchedSets is the degree initializers' replica of the matched vertices
// of the rank's own block of A: bit r of rows is set once row A.Rows.Lo+r is
// matched, bit c of cols once column A.Cols.Lo+c is. Both start empty, as
// MaximalInit starts from empty mates, and grow by each round's new pairs.
type matchedSets struct {
	rows, cols dvec.Bitmap
}

func (s *Solver) newMatchedSets() matchedSets {
	return matchedSets{rows: dvec.NewBitmap(s.A.Rows.Len()), cols: dvec.NewBitmap(s.A.Cols.Len())}
}

// markMatched adds a round's new pairs to the matched sets: the rows of mr
// are allgathered along the grid row, which together owns the block's row
// slab, and the columns of tc along the grid column. Collective.
func (s *Solver) markMatched(m matchedSets, tc, mr *dvec.SparseV) {
	g := s.G
	replicate := func(c *mpi.Comm, idx []int, b dvec.Bitmap, lo int) {
		ctx := g.RT
		mine := ctx.GetInts(len(idx))
		for _, gi := range idx {
			mine = append(mine, int64(gi))
		}
		all := c.AllgathervInto(mine, ctx.GetInts(len(idx)*c.Size()))
		ctx.PutInts(mine)
		b.SetIndices(all, lo)
		g.World.AddWork(len(idx) + len(all))
		ctx.PutInts(all)
	}
	replicate(g.Row, mr.Idx, m.rows, s.A.Rows.Lo)
	replicate(g.Col, tc.Idx, m.cols, s.A.Cols.Lo)
}

// residualColDegrees returns, col-aligned and sorted, the number of
// unmatched row neighbors of every unmatched column that has at least one.
// Each rank counts in its own block of A: it walks the block's nonempty
// columns, skips the matched ones, and counts the rows whose matched bit is
// clear. The partial counts of a column's pr blocks meet at its owner in one
// all-to-all along the grid column, summed on receipt. The counts are
// written into dst, a vector the caller has finished with (nil allocates
// one). Collective.
func (s *Solver) residualColDegrees(m matchedSets, dst *dvec.SparseInt) *dvec.SparseInt {
	g := s.G
	ctx := g.RT
	blk := s.A.M
	// Each pool worker counts a contiguous run of nonempty columns into its
	// own arena buffer, sized for one pair per column, so the buffers
	// concatenated in worker order list the (column, count) pairs in column
	// order for any thread count. Each worker also counts its pairs per
	// owner (owners[w·pr + i] for the i-th rank of my grid column): my
	// block's columns are my grid column's slab of ColL, which the pr owner
	// ranges split in order, so a cursor over them follows the columns.
	pool := ctx.Pool()
	nzc := blk.NZC()
	bounds := pool.Chunks(nzc, parallel.DefaultMinChunk)
	width := len(bounds) - 1
	bufs := make([][]int64, width)
	works := make([]int64, width)
	owners := make([]int, width*g.PR)
	for w := range bufs {
		bufs[w] = ctx.GetInts(2 * (bounds[w+1] - bounds[w]))
	}
	pool.ForChunked(nzc, parallel.DefaultMinChunk, func(w, lo, hi int) {
		buf := bufs[w]
		own := owners[w*g.PR : (w+1)*g.PR]
		i, end := 0, s.ColL.RangeAt(0, g.MyCol).Hi
		wk := int64(hi - lo)
		for k := lo; k < hi; k++ {
			c, rows := blk.ColByIndex(k)
			if m.cols.Has(c) {
				continue
			}
			n := 0
			for _, r := range rows {
				if !m.rows.Has(r) {
					n++
				}
			}
			wk += int64(len(rows))
			if n > 0 {
				gc := s.A.Cols.Lo + c
				buf = append(buf, int64(gc), int64(n))
				for gc >= end {
					i++
					end = s.ColL.RangeAt(i, g.MyCol).Hi
				}
				own[i]++
			}
		}
		bufs[w] = buf
		works[w] = wk
	})
	var work int64
	for _, wk := range works {
		work += wk
	}
	g.World.AddWork(int(work))

	// Size each owner's part for exactly its pairs (the workers' counts
	// summed into owners[:pr]) before filling it, so a part grows at most
	// once instead of doubling through the appends; then fill the parts
	// from the sorted pairs, owner i's after owner i-1's.
	parts := ctx.GetParts(g.PR)
	for i := range parts {
		for w := 1; w < width; w++ {
			owners[i] += owners[w*g.PR+i]
		}
		parts[i] = slices.Grow(parts[i], 2*owners[i])
	}
	i := 0
	for _, buf := range bufs {
		for o := 0; o < len(buf); o += 2 {
			for len(parts[i]) == 2*owners[i] {
				i++
			}
			parts[i] = append(parts[i], buf[o], buf[o+1])
		}
		ctx.PutInts(buf)
	}
	// Each of the pr senders sends at most one pair per column I own.
	flat := g.Col.AlltoallvFlat(parts, ctx.GetInts(2*g.PR*s.ColL.MyRange().Len()))
	ctx.PutParts(parts)
	// Every block of my grid column may count the same column: sum them.
	deg := dvec.ReceiveInt(s.ColL, flat, dst)
	g.World.AddWork(len(flat) / 2)
	ctx.PutInts(flat)
	return deg
}

// frontierFromCols builds a frontier with Self(j) at each index of cols in
// dst's storage, filled in parallel (every entry is kept, so the output slot
// is the input slot and no compaction pass is needed).
func (s *Solver) frontierFromCols(cols *dvec.SparseInt, dst *dvec.SparseV) *dvec.SparseV {
	f := dvec.Reuse(dst, s.ColL, len(cols.Idx))
	s.G.RT.Pool().For(len(cols.Idx), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			g := cols.Idx[k]
			f.Idx[k] = g
			f.Val[k] = semiring.Self(int64(g))
		}
	})
	s.G.World.AddWork(len(cols.Idx))
	return f
}

// degreeInit runs the greedy rounds of a degree-driven initializer: each
// round counts the residual degrees of the unmatched columns, pick turns
// them into the round's frontier and semiring, and the round's new pairs
// join the matched sets. It stops once no unmatched column has an
// unmatched neighbor or a round matches nothing. The first round counts
// over the still empty matched sets, so its degrees list the solve's live
// columns and are kept as that list (see liveCols); later rounds count into
// a vector of their own. pick builds the frontier in the storage of dst,
// the column vector the previous round has finished with.
func (s *Solver) degreeInit(mater, matec *dvec.Dense, pick frontierPick) {
	m := s.newMatchedSets()
	fc, fr := dvec.HoldSparseV(s.ColL), dvec.HoldSparseV(s.RowL)
	s.live = s.residualColDegrees(m, dvec.HoldSparseInt(s.ColL))
	degU, next := s.live, dvec.HoldSparseInt(s.ColL)
	for degU.Nnz() > 0 {
		f, op := pick(degU, fc)
		tc, mr := s.greedyRound(mater, matec, f, fr, op)
		if tc.Nnz() == 0 {
			return
		}
		s.markMatched(m, tc, mr)
		degU = s.residualColDegrees(m, next)
	}
}

// frontierPick turns a round's residual degrees into its frontier, built in
// dst's storage, and semiring.
type frontierPick func(degU *dvec.SparseInt, dst *dvec.SparseV) (*dvec.SparseV, semiring.AddOp)

// karpSipserFrontier returns the pick of the distributed Karp–Sipser round:
// if any unmatched column has residual degree exactly 1, only those
// (forced, always-safe) columns are matched this round; otherwise one
// general greedy round runs. Forced rounds match few columns each, so
// Karp–Sipser runs many more rounds than greedy, each paying a degree count
// and a replication of the new pairs (the Fig. 3 observation). Every round
// filters the degree-1 columns into one vector held for the solve. The pick
// is collective.
func (s *Solver) karpSipserFrontier() frontierPick {
	d1 := dvec.HoldSparseInt(s.ColL)
	return func(degU *dvec.SparseInt, dst *dvec.SparseV) (*dvec.SparseV, semiring.AddOp) {
		if d1 = degU.Filter(func(v int64) bool { return v == 1 }, d1); d1.Nnz() > 0 {
			return s.frontierFromCols(d1, dst), semiring.MinParent
		}
		return s.frontierFromCols(degU, dst), semiring.MinParent
	}
}

// minDegreeFrontier is the distributed dynamic-mindegree round: each row
// picks its minimum-residual-degree neighbor column, with degrees
// recomputed every round ("dynamic"). Degrees ride in the root field of the
// frontier, keyed (degree, column) so ties break by index, and the SpMV runs
// over the (select2nd, minRoot) semiring. The frontier is built in dst's
// storage. Local.
func (s *Solver) minDegreeFrontier(degU *dvec.SparseInt, dst *dvec.SparseV) (*dvec.SparseV, semiring.AddOp) {
	fc := dvec.Reuse(dst, s.ColL, len(degU.Idx))
	s.G.RT.Pool().For(len(degU.Idx), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			g := degU.Idx[k]
			// Root encodes (degree, column) lexicographically.
			key := degU.Val[k]*int64(s.N2) + int64(g)
			fc.Idx[k] = g
			fc.Val[k] = semiring.Vertex{Parent: int64(g), Root: key}
		}
	})
	s.G.World.AddWork(len(degU.Idx))
	return fc, semiring.MinRoot
}
