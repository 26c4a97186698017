// Package spmv implements the distributed sparse matrix–sparse vector
// multiplication over BFS semirings that is "at the heart of the matrix
// algebraic formulation" (paper Sections III-B and IV-B). It follows the 2D
// CombBLAS algorithm: an "expand" phase (allgather of the frontier along the
// grid column), a work-efficient local multiply over the DCSC submatrix, and
// a "fold" phase (personalized all-to-all along the grid row) whose owners
// scatter-reduce the arriving partial results with the semiring addition
// (dvec.ReceiveV).
package spmv

import (
	"fmt"

	"mcmdist/internal/dvec"
	"mcmdist/internal/obs"
	"mcmdist/internal/parallel"
	"mcmdist/internal/rt"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

// Grain sizes for the intra-rank parallel regions: below these per-chunk
// element counts the pool runs the loop inline, because dispatch overhead
// would dominate the work.
const (
	multGrain = 256 // expanded frontier entries per local-multiply chunk
	pullGrain = 256 // local rows per bottom-up scan chunk
)

// Mul computes y = A·x over the (select2nd, op) semiring. A is the calling
// rank's local block of the globally distributed matrix, x a ColAligned
// frontier over the matrix's columns, and outL the RowAligned layout of the
// result. Collective: every rank of the grid must call it together.
//
// The result has one entry per row vertex reachable from the frontier; its
// parent is the frontier column that discovered it (op resolving conflicts)
// and its root is inherited from that column. It is written into dst, a
// vector the caller has finished with (nil allocates one; see
// dvec.ReceiveV).
func Mul(a *spmat.LocalMatrix, x *dvec.SparseV, op semiring.AddOp, outL dvec.Layout, dst *dvec.SparseV) *dvec.SparseV {
	g := x.L.G
	if x.L.Kind != dvec.ColAligned {
		panic("spmv: frontier must be column-aligned")
	}
	if outL.Kind != dvec.RowAligned {
		panic("spmv: output layout must be row-aligned")
	}
	if outL.G != g {
		panic("spmv: layouts on different grids")
	}
	if a.Cols.Hi > x.L.N || a.Rows.Hi > outL.N {
		panic(fmt.Sprintf("spmv: local block %v x %v outside vector lengths %d, %d",
			a.Rows, a.Cols, outL.N, x.L.N))
	}
	checkSlab(a, outL)

	ctx := g.RT
	tr := ctx.Tracer()
	expand0 := tr.Begin()

	// Expand: allgather the frontier pieces along my grid column. The union
	// of the pieces is exactly my column slab, i.e. the frontier entries my
	// local block can act on.
	payload := ctx.GetInts(3 * len(x.Idx))
	for k, gi := range x.Idx {
		payload = append(payload, int64(gi), x.Val[k].Parent, x.Val[k].Root)
	}

	// Local multiply into the rank's persistent dense scratch, whose presence
	// bitmap records the rows touched. With a worker pool, each
	// worker combines its contiguous run of slab entries into a private
	// shard, and the shards are then merged into shard 0 by row band. Any
	// regrouping of the per-row combine sequence is bit-identical because
	// op.Combine is associative and commutative for every BFS semiring.
	//
	// The expand is split-phase: each frontier piece is multiplied as it
	// arrives, hiding stragglers' latency behind the multiply of pieces
	// already here. Shards are borrowed once at the pool's full width; each
	// piece is chunked independently.
	pool := ctx.Pool()
	rq := g.Col.IAllgathervParts(payload)
	width := 1
	if pool != nil {
		width = pool.Threads()
	}
	shards := ctx.ScratchShards("spmv.rows", width, a.Rows.Len())
	sc := shards[0]
	used := 1
	var work int64
	for {
		_, piece, ok := rq.Next()
		if !ok {
			break
		}
		n := len(piece) / 3
		if w := pool.Width(n, multGrain); w > 1 {
			if w > used {
				used = w
			}
			works := make([]int64, w)
			pool.ForChunked(n, multGrain, func(wi, lo, hi int) {
				works[wi] = int64(multiplyRange(a, piece, lo, hi, shards[wi], op))
			})
			for _, wk := range works {
				work += wk
			}
		} else {
			work += int64(multiplyRange(a, piece, 0, n, sc, op))
		}
	}
	rq.Finish()
	ctx.PutInts(payload)
	g.World.AddWork(int(work))
	mergeShards(pool, shards[:used], op, a.Rows.Len())

	tr.End(obs.KindOp, "spmv.expand", expand0, int64(len(x.Idx)))
	fold0 := tr.Begin()

	// Fold: route each discovered row to its owner within my grid row, which
	// scatter-reduces the arriving streams under the semiring addition. The
	// pc owner ranges split my row slab in order, so the routing walks the
	// scratch's present rows in each range: O(rows/64 + discovered) rather
	// than a scan of the slab.
	parts := ctx.GetParts(g.PC)
	for j := range g.PC {
		own := outL.RangeAt(g.MyRow, j)
		hi := own.Hi - a.Rows.Lo
		for r := sc.Next(own.Lo - a.Rows.Lo); r < hi; r = sc.Next(r + 1) {
			parts[j] = append(parts[j], int64(a.Rows.Lo+r), sc.Val[r].Parent, sc.Val[r].Root)
		}
	}
	out := dvec.ReceiveV(outL, g.Row.IAlltoallvParts(parts), op, dst)
	ctx.PutParts(parts)
	g.World.AddWork(out.LocalNnz())
	tr.End(obs.KindOp, "spmv.fold", fold0, int64(out.LocalNnz()))
	return out
}

// checkSlab panics unless a's rows are exactly the calling rank's row slab
// of outL, which the folds rely on to route rows by walking the owner ranges
// of the grid row.
func checkSlab(a *spmat.LocalMatrix, outL dvec.Layout) {
	if slab := outL.SlabRange(); a.Rows != slab {
		panic(fmt.Sprintf("spmv: local block rows %v are not the output slab %v", a.Rows, slab))
	}
}

// mergeShards folds shards[1:] into shards[0] by row band, walking each
// shard's present rows. Band edges round up to a multiple of 64, so every
// presence word of shard 0 is set by one worker only.
func mergeShards(pool *parallel.Pool, shards []*rt.Scratch, op semiring.AddOp, rows int) {
	if len(shards) <= 1 {
		return
	}
	sc := shards[0]
	pool.For(rows, func(lo, hi int) {
		lo, hi = (lo+63)&^63, min((hi+63)&^63, rows)
		for s := 1; s < len(shards); s++ {
			sh := shards[s]
			for r := sh.Next(lo); r < hi; r = sh.Next(r + 1) {
				if !sc.Has(r) {
					sc.Set(r, sh.Val[r])
				} else {
					sc.Val[r] = op.Combine(sc.Val[r], sh.Val[r])
				}
			}
		}
	})
}

// multiplyRange runs the work-efficient local multiply over slab entries
// [lo, hi) (in triples), combining into sc under op, and returns the work
// performed. Concurrent calls must target distinct scratch shards.
func multiplyRange(a *spmat.LocalMatrix, slab []int64, lo, hi int, sc *rt.Scratch, op semiring.AddOp) int {
	work := 0
	for k := lo; k < hi; k++ {
		off := 3 * k
		gcol := int(slab[off])
		v := semiring.Vertex{Parent: slab[off+1], Root: slab[off+2]}
		lcol := gcol - a.Cols.Lo
		if lcol < 0 || lcol >= a.Cols.Len() {
			panic(fmt.Sprintf("spmv: expanded column %d outside block %v", gcol, a.Cols))
		}
		rows := a.M.FindCol(lcol)
		work += len(rows) + 1
		cand := semiring.Multiply(int64(gcol), v)
		for _, r := range rows {
			if !sc.Has(r) {
				sc.Set(r, cand)
			} else {
				sc.Val[r] = op.Combine(sc.Val[r], cand)
			}
		}
	}
	return work
}
