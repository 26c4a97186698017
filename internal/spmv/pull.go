package spmv

import (
	"mcmdist/internal/dvec"
	"mcmdist/internal/obs"
	"mcmdist/internal/rt"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

// MulPull is the bottom-up ("pull") counterpart of Mul, implementing the
// direction optimization the paper lists as future work ("the bottom-up
// BFS in distributed memory"). Instead of scattering from frontier columns
// to rows, every not-yet-visited row scans its own adjacency list and stops
// at the first frontier neighbor, which touches far fewer edges when the
// frontier is a large fraction of the columns — the classic
// Beamer/Buluç-style 2D direction-optimizing BFS step.
//
//   - rowAdj is the calling rank's local block in row-major (CSR) form:
//     rowAdj.Col(r) lists the local column neighbors of local row r.
//   - visited marks rows discovered in earlier iterations of the phase
//     (the π_r vector); their identities are allgathered along the grid
//     row so every rank can skip them, mirroring the replicated visited
//     bitmap of real direction-optimizing implementations.
//
// The result, written into dst as for Mul, is semantically interchangeable
// with Mul's: every reachable unvisited row appears exactly once with a
// parent that is one of its frontier neighbors and that parent's root.
// Under the default MinParent semiring the output is bit-identical to
// Mul's: RowMajor's counting-sort transpose lists each row's neighbors in
// ascending column order, so the early-exit first hit IS the minimum local
// frontier parent, and the fold combines cross-rank candidates with the
// same min — see docs/KERNELS.md.
// Under the randomized semirings (RandRoot, RandParent) the winner is
// hash-keyed rather than positional and the specific parent may differ,
// which is still harmless for MS-BFS: any discovering neighbor yields a
// valid alternating tree. Collective.
//
// The returned PullStats carry this rank's local scan counts so callers can
// adapt the push/pull decision: in matching (unlike plain BFS) a large
// frontier can consist mostly of structurally deficient columns whose
// neighborhoods never hit, making pull scans unproductive.
func MulPull(a *spmat.LocalMatrix, rowAdj *spmat.CSC, x *dvec.SparseV,
	visited *dvec.Dense, op semiring.AddOp, outL dvec.Layout, dst *dvec.SparseV) (*dvec.SparseV, PullStats) {
	g := x.L.G
	if x.L.Kind != dvec.ColAligned {
		panic("spmv: frontier must be column-aligned")
	}
	if outL.Kind != dvec.RowAligned {
		panic("spmv: output layout must be row-aligned")
	}
	if !visited.L.Same(outL) {
		panic("spmv: visited vector must share the output layout")
	}
	if rowAdj.NCols != a.Rows.Len() || rowAdj.NRows != a.Cols.Len() {
		panic("spmv: rowAdj does not match the local block")
	}
	checkSlab(a, outL)

	ctx := g.RT
	tr := ctx.Tracer()
	expand0 := tr.Begin()

	// Expand the frontier along my grid column (same as the push direction)
	// into the rank's persistent scratch over my column slab: its presence
	// bitmap answers the hot membership test with one word load + mask (64
	// columns per cache-resident word), and its values are read only on a
	// hit. The visited-row set is a second bitmap.
	payload := ctx.GetInts(3 * len(x.Idx))
	for k, gi := range x.Idx {
		payload = append(payload, int64(gi), x.Val[k].Parent, x.Val[k].Root)
	}
	frontier := ctx.Scratch("pull.cols", a.Cols.Len())
	skipBuf := ctx.GetInts(dvec.BitmapWords(a.Rows.Len()))
	skip := dvec.AsBitmap(skipBuf, a.Rows.Len())
	// The expand is split-phase: start the frontier expand, build the local
	// visited list while peers' frontier pieces are in flight, start the
	// visited replication (each rank contributes the visited rows of its own
	// piece of the row slab), then fill both scratches progressively as
	// pieces arrive. Entries land directly in the scratch — no slab staging
	// buffer at all.
	rqF := g.Col.IAllgathervParts(payload)
	lo := visited.L.MyRange().Lo
	mine := ctx.GetInts(0)
	for i, v := range visited.Local {
		if v != semiring.None {
			mine = append(mine, int64(lo+i))
		}
	}
	rqV := g.Row.IAllgathervParts(mine)
	for {
		_, piece, ok := rqF.Next()
		if !ok {
			break
		}
		for off := 0; off < len(piece); off += 3 {
			lcol := int(piece[off]) - a.Cols.Lo
			frontier.Set(lcol, semiring.Vertex{Parent: piece[off+1], Root: piece[off+2]})
		}
	}
	rqF.Wait()
	ctx.PutInts(payload)
	nvis := 0
	for {
		_, piece, ok := rqV.Next()
		if !ok {
			break
		}
		skip.SetIndices(piece, a.Rows.Lo)
		nvis += len(piece)
	}
	rqV.Wait()
	ctx.PutInts(mine)
	// The dense visited/frontier bitmaps are scanned with packed bitwise
	// operations: 64 entries per word.
	g.World.AddWork(len(visited.Local)/64 + len(skip.Words) + nvis + 1)
	tr.End(obs.KindOp, "spmv.pull.expand", expand0, int64(len(x.Idx)))
	scan0 := tr.Begin()

	// Pull: every unvisited local row scans its adjacency and stops at the
	// first frontier neighbor. Hits are staged as (row, parent, root)
	// triples in per-worker arena buffers — the row range is cut into
	// contiguous chunks, so concatenating the buffers in worker order keeps
	// the hits sorted by row, exactly as the serial scan emits them. The
	// frontier and skip scratches are read-only during the scan.
	pool := ctx.Pool()
	width := pool.Width(rowAdj.NCols, pullGrain)
	hitsW := make([][]int64, width)
	for w := range hitsW {
		hitsW[w] = ctx.GetInts(0)
	}
	workW := make([]int64, width)
	pool.ForChunked(rowAdj.NCols, pullGrain, func(w, lo, hi int) {
		buf := hitsW[w]
		var wk int64
		for r := lo; r < hi; r++ {
			if skip.Has(r) {
				continue
			}
			for _, lc := range rowAdj.Col(r) {
				wk++
				if frontier.Has(lc) {
					gcol := int64(a.Cols.Lo + lc)
					cand := semiring.Multiply(gcol, frontier.Val[lc])
					buf = append(buf, int64(a.Rows.Lo+r), cand.Parent, cand.Root)
					break // direction optimization: first hit suffices
				}
			}
		}
		hitsW[w] = buf
		workW[w] = wk
	})
	work := len(skip.Words) // packed scan over the skip bitmap
	for _, wk := range workW {
		work += int(wk)
	}
	g.World.AddWork(work)
	tr.End(obs.KindOp, "spmv.pull.scan", scan0, int64(work))
	ctx.PutInts(skipBuf)
	fold0 := tr.Begin()

	// Fold: identical to the push direction. The hits come in row order, so
	// the owner ranges of my grid row are walked alongside them.
	parts := ctx.GetParts(g.PC)
	nhits := 0
	j, hi := 0, outL.RangeAt(g.MyRow, 0).Hi
	for _, hits := range hitsW {
		nhits += len(hits) / 3
		for off := 0; off < len(hits); off += 3 {
			for int(hits[off]) >= hi {
				j++
				hi = outL.RangeAt(g.MyRow, j).Hi
			}
			parts[j] = append(parts[j], hits[off], hits[off+1], hits[off+2])
		}
		ctx.PutInts(hits)
	}
	out := dvec.ReceiveV(outL, g.Row.IAlltoallvParts(parts), op, dst)
	ctx.PutParts(parts)
	g.World.AddWork(out.LocalNnz())
	tr.End(obs.KindOp, "spmv.fold", fold0, int64(out.LocalNnz()))
	return out, PullStats{Scanned: work, Hits: nhits}
}

// PullStats reports one rank's local bottom-up scan productivity.
type PullStats struct {
	Scanned int // adjacency entries examined (including bitmap words)
	Hits    int // rows that found a frontier parent
}

// RowMajor builds the row-major (CSR) twin of a local block that MulPull
// needs: the returned matrix's column r lists the local column indices
// adjacent to local row r, ascending. It is a counting sort straight from
// the DCSC into two arrays held from ctx's solve-lifetime store, so a rank
// whose context served an earlier solve rebuilds the twin in place. Row r's
// count goes to ColPtr[r+2], so after the prefix sum ColPtr[r+1] is where
// row r starts; the scatter advances it as row r's cursor and leaves it at
// row r's end, which is where row r+1 starts.
func RowMajor(a *spmat.LocalMatrix, ctx *rt.Ctx) *spmat.CSC {
	d := a.M
	t := &spmat.CSC{NRows: d.NCols, NCols: d.NRows}
	ctx.HoldIndex(&t.ColPtr, d.NRows+2)
	ctx.HoldIndex(&t.RowIdx, d.NNZ())
	ptr := t.ColPtr
	clear(ptr)
	for _, r := range d.IR {
		ptr[r+2]++
	}
	for r := 2; r < len(ptr); r++ {
		ptr[r] += ptr[r-1]
	}
	for k, j := range d.JC {
		for _, r := range d.IR[d.CP[k]:d.CP[k+1]] {
			t.RowIdx[ptr[r+1]] = j
			ptr[r+1]++
		}
	}
	t.ColPtr = ptr[:d.NRows+1]
	return t
}
