// Package spmv implements the distributed sparse matrix–sparse vector
// multiplication over BFS semirings that is "at the heart of the matrix
// algebraic formulation" (paper Sections III-B and IV-B). It follows the 2D
// CombBLAS algorithm: an "expand" phase (allgather of the frontier along the
// grid column), a work-efficient local multiply over the DCSC submatrix, and
// a "fold" phase (personalized all-to-all along the grid row) that merges
// partial results with the semiring addition.
package spmv

import (
	"fmt"
	"sort"

	"mcmdist/internal/dvec"
	"mcmdist/internal/mpi"
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
	multGrain  = 256  // expanded frontier entries per local-multiply chunk
	mergeGrain = 2048 // fold triples per k-way-merge segment
	pullGrain  = 256  // local rows per bottom-up scan chunk
)

// Mul computes y = A·x over the (select2nd, op) semiring. A is the calling
// rank's local block of the globally distributed matrix, x a ColAligned
// frontier over the matrix's columns, and outL the RowAligned layout of the
// result. Collective: every rank of the grid must call it together.
//
// The result has one entry per row vertex reachable from the frontier; its
// parent is the frontier column that discovered it (op resolving conflicts)
// and its root is inherited from that column.
func Mul(a *spmat.LocalMatrix, x *dvec.SparseV, op semiring.AddOp, outL dvec.Layout) *dvec.SparseV {
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

	// Fold: route each discovered row to its owner within my grid row and
	// merge with the semiring addition. The pc owner ranges split my row
	// slab in order, so the routing walks the scratch's present rows in
	// each range: O(rows/64 + discovered) rather than a scan of the slab.
	parts := ctx.GetParts(g.PC)
	for j := range g.PC {
		own := outL.RangeAt(g.MyRow, j)
		hi := own.Hi - a.Rows.Lo
		for r := sc.Next(own.Lo - a.Rows.Lo); r < hi; r = sc.Next(r + 1) {
			parts[j] = append(parts[j], int64(a.Rows.Lo+r), sc.Val[r].Parent, sc.Val[r].Root)
		}
	}
	out := foldOverlap(ctx, g.Row, parts, op, outL)
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

// foldOverlap is the split-phase fold: the personalized all-to-all is
// drained progressively and streams already here are pairwise-merged while
// stragglers are still sending — mergesort-style run collapsing keeps the
// early-merge work O(n log k). Whatever runs remain when the last stream
// lands go through the usual banded k-way merge. Zero-copy streams from the
// request are only read before Finish, after which the send parts are
// recycled.
func foldOverlap(ctx *rt.Ctx, row *mpi.Comm, parts [][]int64, op semiring.AddOp, outL dvec.Layout) *dvec.SparseV {
	rq := row.IAlltoallvParts(parts)
	var runs [][]int64
	var owned []bool // runs[i] is an arena buffer (vs a zero-copy stream)
	for {
		_, stream, ok := rq.Next()
		if !ok {
			break
		}
		if len(stream) == 0 {
			continue
		}
		runs, owned = append(runs, stream), append(owned, false)
		// Collapse similar-sized neighbouring runs while a straggler is
		// still outstanding to hide the merge behind.
		for len(runs) >= 2 && rq.Pending() > 0 {
			a, b := runs[len(runs)-2], runs[len(runs)-1]
			if len(a) > 2*len(b) {
				break
			}
			merged := merge2Triples(ctx.GetInts(len(a)+len(b)), a, b, op)
			if owned[len(owned)-2] {
				ctx.PutInts(a)
			}
			if owned[len(owned)-1] {
				ctx.PutInts(b)
			}
			runs = append(runs[:len(runs)-2], merged)
			owned = append(owned[:len(owned)-2], true)
		}
	}
	out := mergeSortedTriples(ctx, runs, op, outL)
	rq.Finish()
	for i, r := range runs {
		if owned[i] {
			ctx.PutInts(r)
		}
	}
	ctx.PutParts(parts)
	return out
}

// merge2Triples merges two row-sorted triple runs into dst, combining
// duplicate rows with op, and returns the grown dst. Each input holds a row
// at most once, so the output does too.
func merge2Triples(dst, a, b []int64, op semiring.AddOp) []int64 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i], a[i+1], a[i+2])
			i += 3
		case b[j] < a[i]:
			dst = append(dst, b[j], b[j+1], b[j+2])
			j += 3
		default:
			v := op.Combine(semiring.Vertex{Parent: a[i+1], Root: a[i+2]},
				semiring.Vertex{Parent: b[j+1], Root: b[j+2]})
			dst = append(dst, a[i], v.Parent, v.Root)
			i, j = i+3, j+3
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
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

// mergeSortedTriples k-way merges the per-sender triple streams — each
// already sorted by global index, because senders emit their scratch rows
// in increasing order — into one sparse vector, combining duplicates with
// the semiring addition. Avoiding a hash map here matters: the fold runs
// once per BFS iteration and its output feeds straight into ordered
// Appends. Stream heads sit in a binary min-heap, so each emitted element
// costs O(log k) instead of a scan over all k senders. With a worker pool
// the output row range is cut into bands (stream cut points found by
// binary search), each band merged independently, and the bands
// concatenated — band boundaries respect row order, so the result is
// identical to the single-band merge.
func mergeSortedTriples(ctx *rt.Ctx, got [][]int64, op semiring.AddOp, outL dvec.Layout) *dvec.SparseV {
	total := 0
	for _, s := range got {
		total += len(s) / 3
	}
	pool := ctx.Pool()
	width := pool.Width(total, mergeGrain)
	if width <= 1 {
		out := dvec.NewSparseV(outL)
		mergeTriplesInto(out, got, op)
		return out
	}

	// Cut every stream at the band-boundary rows. Bands split the local row
	// range evenly; fold triples are usually spread across it.
	r := outL.MyRange()
	cuts := make([][]int, width+1) // cuts[b][s] = offset of band b's start in stream s
	cuts[0] = make([]int, len(got))
	for b := 1; b < width; b++ {
		boundary := int64(r.Lo + b*r.Len()/width)
		cut := make([]int, len(got))
		for s, stream := range got {
			n := len(stream) / 3
			cut[s] = 3 * sort.Search(n, func(i int) bool { return stream[3*i] >= boundary })
		}
		cuts[b] = cut
	}
	last := make([]int, len(got))
	for s := range got {
		last[s] = len(got[s])
	}
	cuts[width] = last

	outs := make([]*dvec.SparseV, width)
	pool.ForChunked(width, 1, func(_, blo, bhi int) {
		for b := blo; b < bhi; b++ {
			segs := make([][]int64, len(got))
			for s := range got {
				segs[s] = got[s][cuts[b][s]:cuts[b+1][s]]
			}
			outs[b] = dvec.NewSparseV(outL)
			mergeTriplesInto(outs[b], segs, op)
		}
	})

	out := outs[0]
	for _, o := range outs[1:] {
		out.Idx = append(out.Idx, o.Idx...)
		out.Val = append(out.Val, o.Val...)
	}
	return out
}

// mergeTriplesInto heap-merges the sorted triple streams into out,
// combining duplicate indices with op. The heap orders by (row, stream), so
// equal rows are absorbed in ascending stream order — and op.Combine is
// commutative besides, so duplicate order cannot change the result.
func mergeTriplesInto(out *dvec.SparseV, got [][]int64, op semiring.AddOp) {
	heads := make([]int, len(got))
	heap := make([]int, 0, len(got)) // stream ids, min-heap by head row
	less := func(a, b int) bool {
		ra, rb := got[a][heads[a]], got[b][heads[b]]
		return ra < rb || (ra == rb && a < b)
	}
	push := func(s int) {
		heap = append(heap, s)
		for i := len(heap) - 1; i > 0; {
			parent := (i - 1) / 2
			if !less(heap[i], heap[parent]) {
				break
			}
			heap[i], heap[parent] = heap[parent], heap[i]
			i = parent
		}
	}
	pop := func() int {
		top := heap[0]
		n := len(heap) - 1
		heap[0] = heap[n]
		heap = heap[:n]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < n && less(heap[l], heap[small]) {
				small = l
			}
			if r < n && less(heap[r], heap[small]) {
				small = r
			}
			if small == i {
				break
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
		return top
	}
	for s := range got {
		if len(got[s]) > 0 {
			push(s)
		}
	}
	for len(heap) > 0 {
		s := pop()
		h := heads[s]
		gi := got[s][h]
		acc := semiring.Vertex{Parent: got[s][h+1], Root: got[s][h+2]}
		heads[s] += 3
		if heads[s] < len(got[s]) {
			push(s)
		}
		// Absorb equal indices from the other streams (each sender emits an
		// index at most once, so the winner itself cannot repeat it).
		for len(heap) > 0 && got[heap[0]][heads[heap[0]]] == gi {
			s2 := pop()
			h2 := heads[s2]
			acc = op.Combine(acc, semiring.Vertex{Parent: got[s2][h2+1], Root: got[s2][h2+2]})
			heads[s2] += 3
			if heads[s2] < len(got[s2]) {
				push(s2)
			}
		}
		out.Append(int(gi), acc)
	}
}
