package spmat

import (
	"fmt"
	"math"
	"slices"
)

// Block describes one contiguous block of a 1D index range that has been
// split across processes: global indices [Lo, Hi) map to local 0..Hi-Lo.
type Block struct {
	Lo, Hi int
}

// Len returns the number of indices in the block.
func (b Block) Len() int { return b.Hi - b.Lo }

// Contains reports whether global index g falls inside the block.
func (b Block) Contains(g int) bool { return g >= b.Lo && g < b.Hi }

// BlockAt returns block k of the partition of [0, n) into parts near-equal
// contiguous blocks, the first n%parts blocks being one longer (the usual
// MPI block distribution). It is closed-form, O(1) and allocation-free —
// this sits on the per-element path of vector Appends and owner lookups.
func BlockAt(n, parts, k int) Block {
	base, rem := n/parts, n%parts
	if k < rem {
		lo := k * (base + 1)
		return Block{Lo: lo, Hi: lo + base + 1}
	}
	lo := rem*(base+1) + (k-rem)*base
	return Block{Lo: lo, Hi: lo + base}
}

// OwnerOf returns the index of the block containing global index g, for
// the BlockAt partition of [0, n) into parts blocks. O(1).
func OwnerOf(n, parts, g int) int {
	base, rem := n/parts, n%parts
	cut := rem * (base + 1)
	if g < cut {
		return g / (base + 1)
	}
	if base == 0 {
		return parts - 1 // g >= cut impossible unless n==cut; defensive
	}
	return rem + (g-cut)/base
}

// LocalMatrix is the submatrix owned by one process of the 2D grid: the
// intersection of one row slab and one column slab of the global matrix,
// stored in DCSC with local (block-relative) indices.
type LocalMatrix struct {
	Rows, Cols Block // global index ranges of this block
	M          *DCSC // local submatrix, indices relative to Rows.Lo/Cols.Lo
}

// Submatrix returns the rows x cols block of a in DCSC form, with indices
// relative to rows.Lo and cols.Lo. Each column of a CSC is sorted, so its run
// inside the row slab is contiguous and found by binary search: one pass
// sizes the result and a second copies the runs, with no staging and no sort.
// The dense column pointer is built last, in O(ncols). It panics on a block
// whose nnz does not fit in the pointer's int32.
func Submatrix(a *CSC, rows, cols Block) *DCSC {
	nzc, nnz := 0, 0
	for j := cols.Lo; j < cols.Hi; j++ {
		if lo, hi := slabRun(a, j, rows); hi > lo {
			nzc++
			nnz += hi - lo
		}
	}
	if nnz > math.MaxInt32 {
		panic(fmt.Sprintf("spmat: block %v x %v has %d nonzeros, more than an int32 column pointer holds", rows, cols, nnz))
	}
	d := &DCSC{
		NRows: rows.Len(),
		NCols: cols.Len(),
		JC:    make([]int, 0, nzc),
		CP:    make([]int, 1, nzc+1),
		IR:    make([]int, 0, nnz),
	}
	for j := cols.Lo; j < cols.Hi; j++ {
		lo, hi := slabRun(a, j, rows)
		if hi == lo {
			continue
		}
		d.JC = append(d.JC, j-cols.Lo)
		for _, i := range a.RowIdx[lo:hi] {
			d.IR = append(d.IR, i-rows.Lo)
		}
		d.CP = append(d.CP, len(d.IR))
	}
	return d.index()
}

// slabRun returns the range of a.RowIdx holding column j's entries whose
// rows fall inside rows.
func slabRun(a *CSC, j int, rows Block) (lo, hi int) {
	col := a.Col(j)
	s, _ := slices.BinarySearch(col, rows.Lo)
	e, _ := slices.BinarySearch(col[s:], rows.Hi)
	return a.ColPtr[j] + s, a.ColPtr[j] + s + e
}

// Distribute2D splits the global matrix into pr x pc local matrices.
// Element (i, j) of the result is the block owned by grid process (i, j):
// global rows in BlockAt(a.NRows, pr, i), global columns in
// BlockAt(a.NCols, pc, j).
func Distribute2D(a *CSC, pr, pc int) [][]*LocalMatrix {
	out := newBlockGrid(pr, pc)
	for i := range out {
		for j := range out[i] {
			out[i][j] = localBlock(a, pr, pc, i, j)
		}
	}
	return out
}

// DistributeRanks builds the block of a that each listed rank of a pr x pc
// grid solves on: block (i, j), where rank r sits at (r/pc, r%pc) in the
// grid's row-major order. A nil ranks means every rank; otherwise the
// entries of unlisted ranks stay nil. The result equals Distribute2D(a) on
// the listed entries.
func DistributeRanks(a *CSC, pr, pc int, ranks []int) [][]*LocalMatrix {
	blocks := newBlockGrid(pr, pc)
	build := func(r int) {
		i, j := r/pc, r%pc
		blocks[i][j] = localBlock(a, pr, pc, i, j)
	}
	if ranks == nil {
		for r := 0; r < pr*pc; r++ {
			build(r)
		}
	}
	for _, r := range ranks {
		build(r)
	}
	return blocks
}

// localBlock is block (i, j) of a on a pr x pc grid.
func localBlock(a *CSC, pr, pc, i, j int) *LocalMatrix {
	rows, cols := BlockAt(a.NRows, pr, i), BlockAt(a.NCols, pc, j)
	return &LocalMatrix{Rows: rows, Cols: cols, M: Submatrix(a, rows, cols)}
}

func newBlockGrid(pr, pc int) [][]*LocalMatrix {
	out := make([][]*LocalMatrix, pr)
	for i := range out {
		out[i] = make([]*LocalMatrix, pc)
	}
	return out
}
