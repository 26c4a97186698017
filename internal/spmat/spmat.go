// Package spmat provides the sparse-matrix substrate used by the matching
// algorithms: coordinate (COO) construction, compressed sparse columns (CSC),
// doubly compressed sparse columns (DCSC, the CombBLAS local format), row and
// column permutations, transposition, and 2D block distribution onto a
// process grid.
//
// All matrices in this package are binary (pattern) matrices: a nonzero at
// (i, j) records an edge between row vertex i and column vertex j of a
// bipartite graph G = (R, C, E), following the representation of Azad &
// Buluç (IPDPS 2016), Section II.
package spmat

import (
	"fmt"
	"sort"
)

// Triple is one nonzero coordinate of a pattern matrix.
type Triple struct {
	Row, Col int
}

// COO is an unordered coordinate-format pattern matrix, used as a staging
// area while generating or reading matrices.
type COO struct {
	NRows, NCols int
	Entries      []Triple
}

// NewCOO returns an empty COO matrix with the given dimensions.
func NewCOO(nrows, ncols int) *COO {
	if nrows < 0 || ncols < 0 {
		panic(fmt.Sprintf("spmat: negative dimension %dx%d", nrows, ncols))
	}
	return &COO{NRows: nrows, NCols: ncols}
}

// Add appends the nonzero (i, j). Duplicates are tolerated and removed when
// the COO is compiled to CSC.
func (c *COO) Add(i, j int) {
	if i < 0 || i >= c.NRows || j < 0 || j >= c.NCols {
		panic(fmt.Sprintf("spmat: entry (%d,%d) outside %dx%d", i, j, c.NRows, c.NCols))
	}
	c.Entries = append(c.Entries, Triple{Row: i, Col: j})
}

// NNZ returns the number of stored entries, including duplicates.
func (c *COO) NNZ() int { return len(c.Entries) }

// CSC is a compressed-sparse-columns pattern matrix. RowIdx holds the row
// indices of nonzeros column by column; ColPtr[j]..ColPtr[j+1] delimits
// column j. Row indices are strictly increasing within each column and the
// matrix contains no duplicate entries.
type CSC struct {
	NRows, NCols int
	ColPtr       []int
	RowIdx       []int
}

// ToCSC compresses the COO matrix into CSC form with two stable counting
// passes, by row and then by column, so every column's rows come out sorted
// and duplicates end up adjacent, where one sweep drops them. O(nnz + n).
func (c *COO) ToCSC() *CSC {
	rowPtr := make([]int, c.NRows+1)
	colPtr := make([]int, c.NCols+1)
	for _, e := range c.Entries {
		rowPtr[e.Row+1]++
		colPtr[e.Col+1]++
	}
	prefixSum(rowPtr)
	prefixSum(colPtr)

	// Pass 1: the column indices grouped by row (CSR).
	colsByRow := make([]int, len(c.Entries))
	next := append([]int(nil), rowPtr[:c.NRows]...)
	for _, e := range c.Entries {
		colsByRow[next[e.Row]] = e.Col
		next[e.Row]++
	}
	// Pass 2: walking rows in order scatters each column's rows sorted.
	rowIdx := make([]int, len(c.Entries))
	next = append(next[:0], colPtr[:c.NCols]...)
	for i := 0; i < c.NRows; i++ {
		for _, j := range colsByRow[rowPtr[i]:rowPtr[i+1]] {
			rowIdx[next[j]] = i
			next[j]++
		}
	}

	// Drop adjacent duplicates, compacting in place.
	w, lo := 0, 0
	for j := 0; j < c.NCols; j++ {
		hi := colPtr[j+1]
		for k := lo; k < hi; k++ {
			if k == lo || rowIdx[k] != rowIdx[k-1] {
				rowIdx[w] = rowIdx[k]
				w++
			}
		}
		colPtr[j+1], lo = w, hi
	}
	return &CSC{NRows: c.NRows, NCols: c.NCols, ColPtr: colPtr, RowIdx: rowIdx[:w]}
}

// prefixSum turns per-slot counts in p[1:] into running offsets.
func prefixSum(p []int) {
	for k := 1; k < len(p); k++ {
		p[k] += p[k-1]
	}
}

// NNZ returns the number of nonzeros.
func (m *CSC) NNZ() int { return len(m.RowIdx) }

// Col returns the (sorted) row indices of column j. The returned slice
// aliases the matrix storage and must not be modified.
func (m *CSC) Col(j int) []int {
	return m.RowIdx[m.ColPtr[j]:m.ColPtr[j+1]]
}

// ColDegree returns the number of nonzeros in column j.
func (m *CSC) ColDegree(j int) int { return m.ColPtr[j+1] - m.ColPtr[j] }

// Has reports whether entry (i, j) is nonzero, by binary search in column j.
func (m *CSC) Has(i, j int) bool {
	col := m.Col(j)
	k := sort.SearchInts(col, i)
	return k < len(col) && col[k] == i
}

// RowDegrees returns the per-row nonzero counts.
func (m *CSC) RowDegrees() []int {
	deg := make([]int, m.NRows)
	for _, i := range m.RowIdx {
		deg[i]++
	}
	return deg
}

// Transpose returns the transpose of m in CSC form (equivalently, m in CSR
// form), computed by counting sort in O(nnz + n).
func (m *CSC) Transpose() *CSC {
	t := &CSC{
		NRows:  m.NCols,
		NCols:  m.NRows,
		ColPtr: make([]int, m.NRows+1),
		RowIdx: make([]int, m.NNZ()),
	}
	for _, i := range m.RowIdx {
		t.ColPtr[i+1]++
	}
	prefixSum(t.ColPtr)
	next := append([]int(nil), t.ColPtr[:m.NRows]...)
	for j := 0; j < m.NCols; j++ {
		for _, i := range m.Col(j) {
			t.RowIdx[next[i]] = j
			next[i]++
		}
	}
	return t
}

// Permute returns P·A·Q for permutations given as rowPerm and colPerm, where
// rowPerm[i] is the new index of old row i and colPerm[j] the new index of
// old column j. A nil permutation means identity.
//
// It is a counting sort: column sizes are known from m, and walking the rows
// in their new order through m's row-major form fills every new column with
// ascending row indices.
func (m *CSC) Permute(rowPerm, colPerm []int) *CSC {
	if rowPerm != nil && len(rowPerm) != m.NRows {
		panic("spmat: rowPerm length mismatch")
	}
	if colPerm != nil && len(colPerm) != m.NCols {
		panic("spmat: colPerm length mismatch")
	}
	newCol := func(j int) int {
		if colPerm == nil {
			return j
		}
		return colPerm[j]
	}
	out := &CSC{
		NRows:  m.NRows,
		NCols:  m.NCols,
		ColPtr: make([]int, m.NCols+1),
		RowIdx: make([]int, m.NNZ()),
	}
	for j := 0; j < m.NCols; j++ {
		out.ColPtr[newCol(j)+1] = m.ColDegree(j)
	}
	prefixSum(out.ColPtr)
	next := append([]int(nil), out.ColPtr[:m.NCols]...)

	oldRow := make([]int, m.NRows) // new row index -> old
	for i := range oldRow {
		if rowPerm == nil {
			oldRow[i] = i
		} else {
			oldRow[rowPerm[i]] = i
		}
	}
	rows := m.Transpose()
	for ni, i := range oldRow {
		for _, j := range rows.Col(i) {
			nj := newCol(j)
			out.RowIdx[next[nj]] = ni
			next[nj]++
		}
	}
	return out
}

// Equal reports whether two CSC matrices have identical dimensions and
// nonzero structure.
func (m *CSC) Equal(o *CSC) bool {
	if m.NRows != o.NRows || m.NCols != o.NCols || m.NNZ() != o.NNZ() {
		return false
	}
	for j := range m.ColPtr {
		if m.ColPtr[j] != o.ColPtr[j] {
			return false
		}
	}
	for k := range m.RowIdx {
		if m.RowIdx[k] != o.RowIdx[k] {
			return false
		}
	}
	return true
}

// Triples returns the nonzeros of m in column-major order.
func (m *CSC) Triples() []Triple {
	out := make([]Triple, 0, m.NNZ())
	for j := 0; j < m.NCols; j++ {
		for _, i := range m.Col(j) {
			out = append(out, Triple{Row: i, Col: j})
		}
	}
	return out
}
