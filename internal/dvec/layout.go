// Package dvec implements the distributed dense and sparse vectors of the
// paper's matrix-algebraic formulation, along with the primitive set of its
// Table I: IND, SELECT, SET, INVERT and PRUNE. Vectors are distributed on
// the same 2D process grid as the matrix (Section IV-A): a length-n vector
// is split into one slab per grid dimension, and each slab is subdivided
// among the processes of the matching grid row or column, so that the
// "expand" phase of SpMV is an allgather along a grid column and the "fold"
// phase a personalized all-to-all along a grid row, exactly as in CombBLAS.
package dvec

import (
	"fmt"
	"slices"

	"mcmdist/internal/grid"
	"mcmdist/internal/spmat"
)

// Kind says which side of the bipartite graph a vector indexes, which
// determines its alignment on the grid.
type Kind int

const (
	// RowAligned vectors index row vertices (length n1). Slab i of the
	// vector matches matrix row-block i and is owned by grid row i,
	// subdivided among that row's pc processes.
	RowAligned Kind = iota
	// ColAligned vectors index column vertices (length n2). Slab j matches
	// matrix column-block j and is owned by grid column j, subdivided among
	// that column's pr processes.
	ColAligned
)

// String names the kind.
func (k Kind) String() string {
	if k == RowAligned {
		return "row"
	}
	return "col"
}

// Layout is the shared description of how a length-N vector is distributed
// on a grid. Layouts are values: every rank constructs an identical Layout
// and methods are pure.
type Layout struct {
	G    *grid.Grid
	N    int
	Kind Kind
}

// NewLayout builds a layout for a length-n vector of the given kind.
func NewLayout(g *grid.Grid, n int, kind Kind) Layout {
	if n < 0 {
		panic(fmt.Sprintf("dvec: negative length %d", n))
	}
	return Layout{G: g, N: n, Kind: kind}
}

// slabOf returns the global range of the slab with the given index.
func (l Layout) slabOf(slab int) spmat.Block {
	if l.Kind == RowAligned {
		return spmat.BlockAt(l.N, l.G.PR, slab)
	}
	return spmat.BlockAt(l.N, l.G.PC, slab)
}

// RangeAt returns the global index range owned by the rank at grid
// coordinates (i, j).
func (l Layout) RangeAt(i, j int) spmat.Block {
	if l.Kind == RowAligned {
		slab := l.slabOf(i)
		sub := spmat.BlockAt(slab.Len(), l.G.PC, j)
		return spmat.Block{Lo: slab.Lo + sub.Lo, Hi: slab.Lo + sub.Hi}
	}
	slab := l.slabOf(j)
	sub := spmat.BlockAt(slab.Len(), l.G.PR, i)
	return spmat.Block{Lo: slab.Lo + sub.Lo, Hi: slab.Lo + sub.Hi}
}

// MyRange returns the global index range owned by the calling rank.
func (l Layout) MyRange() spmat.Block {
	return l.RangeAt(l.G.MyRow, l.G.MyCol)
}

// OwnerCoords returns the grid coordinates of the rank owning global index g.
func (l Layout) OwnerCoords(g int) (i, j int) {
	if g < 0 || g >= l.N {
		panic(fmt.Sprintf("dvec: index %d outside [0,%d)", g, l.N))
	}
	if l.Kind == RowAligned {
		i = spmat.OwnerOf(l.N, l.G.PR, g)
		slab := l.slabOf(i)
		j = spmat.OwnerOf(slab.Len(), l.G.PC, g-slab.Lo)
		return i, j
	}
	j = spmat.OwnerOf(l.N, l.G.PC, g)
	slab := l.slabOf(j)
	i = spmat.OwnerOf(slab.Len(), l.G.PR, g-slab.Lo)
	return i, j
}

// owners refills buf with the grid's p ranks in index order and returns
// its two halves: ends[k] is the exclusive end of the k-th rank's range
// (an empty range ends where the one before it does) and ranks[k] is that
// rank's world rank. ownerSlot searches ends, so a caller routing many
// indices pays the divisions of OwnerCoords once per call, not once per
// index. ends heads buf, so it is what goes back to an arena.
func (l Layout) owners(buf []int64) (ends, ranks []int64) {
	p := l.G.PR * l.G.PC
	buf = slices.Grow(buf[:0], 2*p)[:2*p]
	ends, ranks = buf[:p], buf[p:]
	for k := range p {
		i, j := k/l.G.PC, k%l.G.PC
		if l.Kind == ColAligned {
			i, j = k%l.G.PR, k/l.G.PR
		}
		ends[k], ranks[k] = int64(l.RangeAt(i, j).Hi), int64(l.G.RankAt(i, j))
	}
	return ends, ranks
}

// ownerSlot returns the position of the range holding g in ends, the range
// ends of owners: the first that ends past g. g must lie in [0, N).
func ownerSlot(ends []int64, g int64) int {
	lo, hi := 0, len(ends)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ends[mid] > g {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Owner returns the world rank owning global index g and g's local offset
// within that rank's block.
func (l Layout) Owner(g int) (rank, local int) {
	i, j := l.OwnerCoords(g)
	return l.G.RankAt(i, j), g - l.RangeAt(i, j).Lo
}

// Same reports whether two layouts describe the same distribution, the
// precondition for the communication-free Table I primitives.
func (l Layout) Same(o Layout) bool {
	return l.G == o.G && l.N == o.N && l.Kind == o.Kind
}

// SlabRange returns the global range of this rank's slab: the part of the
// vector collectively owned by this rank's grid column (for ColAligned) or
// grid row (for RowAligned). This is the paper's v_i piece "collected by all
// the processors along the ith processor row or column".
func (l Layout) SlabRange() spmat.Block {
	if l.Kind == RowAligned {
		return l.slabOf(l.G.MyRow)
	}
	return l.slabOf(l.G.MyCol)
}
