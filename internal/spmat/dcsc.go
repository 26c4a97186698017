package spmat

// DCSC is the doubly compressed sparse columns format used by CombBLAS for
// local submatrices (Buluç & Gilbert). Unlike CSC it does not walk empty
// columns: only the nzc columns that contain at least one nonzero are
// listed.
//
//	JC[k]          = index of the k-th nonempty column (strictly increasing)
//	CP[k]..CP[k+1] = range of IR holding the row indices of column JC[k]
//	IR             = row indices, sorted within each column
//
// DCSC matters in the 2D distribution because a local submatrix of an
// n/√p-column slab frequently has far fewer than n/√p nonempty columns
// (hypersparsity), and iterating over it must cost O(nzc), not O(ncols).
//
// Lookups by column index go through one dense int32 pointer over the
// block's column slab: IR[ptr[j]:ptr[j+1]] are column j's rows, empty for an
// empty column, so FindCol is one load. The pointer costs 4·(ncols+1)
// bytes, O(n/√p) per rank, the same order as the dense scratches every rank
// already holds over its row and column slabs; iteration still walks only
// JC and CP.
type DCSC struct {
	NRows, NCols int
	JC           []int // nonempty column indices, len nzc
	CP           []int // column pointers, len nzc+1
	IR           []int // row indices, len nnz

	ptr []int32 // ptr[j]..ptr[j+1] = range of IR holding column j, len ncols+1
}

// index builds the dense column pointer from JC and CP. Constructors call it
// once both are final, on at most math.MaxInt32 nonzeros.
func (d *DCSC) index() *DCSC {
	d.ptr = make([]int32, d.NCols+1)
	k := 0
	for j := range d.NCols {
		d.ptr[j] = int32(d.CP[k])
		if k < len(d.JC) && d.JC[k] == j {
			k++
		}
	}
	d.ptr[d.NCols] = int32(len(d.IR))
	return d
}

// NNZ returns the number of nonzeros.
func (d *DCSC) NNZ() int { return len(d.IR) }

// NZC returns the number of nonempty columns.
func (d *DCSC) NZC() int { return len(d.JC) }

// ColByIndex returns the j-th nonempty column: its column index and its
// sorted row indices. The slice aliases the matrix storage.
func (d *DCSC) ColByIndex(k int) (col int, rows []int) {
	return d.JC[k], d.IR[d.CP[k]:d.CP[k+1]]
}

// FindCol returns the sorted row indices of column j, or nil when the column
// is empty or j is outside [0, NCols). One load of the dense column pointer.
func (d *DCSC) FindCol(j int) []int {
	if uint(j) >= uint(d.NCols) {
		return nil
	}
	lo, hi := d.ptr[j], d.ptr[j+1]
	if lo == hi {
		return nil
	}
	return d.IR[lo:hi]
}
