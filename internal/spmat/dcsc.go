package spmat

// DCSC is the doubly compressed sparse columns format used by CombBLAS for
// local submatrices (Buluç & Gilbert). Unlike CSC it does not spend O(ncols)
// storage on empty columns: only the nzc columns that contain at least one
// nonzero are represented.
//
//	JC[k]          = index of the k-th nonempty column (strictly increasing)
//	CP[k]..CP[k+1] = range of IR holding the row indices of column JC[k]
//	IR             = row indices, sorted within each column
//
// DCSC matters in the 2D distribution because a local submatrix of an
// n/√p-column slab frequently has far fewer than n/√p nonempty columns
// (hypersparsity), and iterating over it must cost O(nzc), not O(ncols).
//
// Every constructor also builds the AUX index of Buluç & Gilbert's
// hypersparse format, which makes FindCol O(1) expected: the columns are cut
// into chunks of cf = ⌈ncols/nzc⌉, and aux[c] is the first position in JC
// whose column falls in chunk c or later (aux[len(aux)-1] = nzc). That is at
// most nzc+1 ints, and a chunk holds one nonempty column on average.
type DCSC struct {
	NRows, NCols int
	JC           []int // nonempty column indices, len nzc
	CP           []int // column pointers, len nzc+1
	IR           []int // row indices, len nnz

	cf  int   // columns per AUX chunk
	aux []int // aux[c] = first k with JC[k] >= c*cf
}

// index builds the AUX index over JC. Constructors call it once JC is final.
func (d *DCSC) index() *DCSC {
	nzc := len(d.JC)
	d.cf = max(1, d.NCols)
	if nzc > 0 {
		d.cf = (d.NCols + nzc - 1) / nzc
	}
	chunks := (d.NCols + d.cf - 1) / d.cf
	d.aux = make([]int, chunks+1)
	k := 0
	for c := range chunks {
		d.aux[c] = k
		for k < nzc && d.JC[k] < (c+1)*d.cf {
			k++
		}
	}
	d.aux[chunks] = nzc
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
// is empty or j is outside [0, NCols). It scans j's AUX chunk, which is O(1)
// expected.
func (d *DCSC) FindCol(j int) []int {
	if uint(j) >= uint(d.NCols) {
		return nil
	}
	c := j / d.cf
	for k := d.aux[c]; k < d.aux[c+1]; k++ {
		if d.JC[k] >= j {
			if d.JC[k] == j {
				return d.IR[d.CP[k]:d.CP[k+1]]
			}
			return nil
		}
	}
	return nil
}
