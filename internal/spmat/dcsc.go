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

// ToDCSC converts a CSC matrix to DCSC form.
func (m *CSC) ToDCSC() *DCSC {
	d := &DCSC{NRows: m.NRows, NCols: m.NCols, IR: m.RowIdx}
	for j := 0; j < m.NCols; j++ {
		if m.ColPtr[j+1] > m.ColPtr[j] {
			d.JC = append(d.JC, j)
			d.CP = append(d.CP, m.ColPtr[j])
		}
	}
	d.CP = append(d.CP, len(m.RowIdx))
	return d.index()
}

// ToCSC expands the DCSC matrix back to plain CSC form.
func (d *DCSC) ToCSC() *CSC {
	m := &CSC{
		NRows:  d.NRows,
		NCols:  d.NCols,
		ColPtr: make([]int, d.NCols+1),
		RowIdx: d.IR,
	}
	for k, j := range d.JC {
		m.ColPtr[j+1] = d.CP[k+1] - d.CP[k]
	}
	for j := 0; j < d.NCols; j++ {
		m.ColPtr[j+1] += m.ColPtr[j]
	}
	return m
}

// Transpose returns the transpose of d in DCSC form, by counting sort over
// its rows in O(nnz + NRows). Columns are visited in increasing order, so
// every output column's row indices come out sorted.
func (d *DCSC) Transpose() *DCSC {
	ptr := make([]int, d.NRows+1)
	for _, i := range d.IR {
		ptr[i+1]++
	}
	prefixSum(ptr)
	nzc := 0
	for i := 0; i < d.NRows; i++ {
		if ptr[i+1] > ptr[i] {
			nzc++
		}
	}
	t := &DCSC{
		NRows: d.NCols,
		NCols: d.NRows,
		JC:    make([]int, 0, nzc),
		CP:    make([]int, 0, nzc+1),
		IR:    make([]int, len(d.IR)),
	}
	for i := 0; i < d.NRows; i++ {
		if ptr[i+1] > ptr[i] {
			t.JC = append(t.JC, i)
			t.CP = append(t.CP, ptr[i])
		}
	}
	t.CP = append(t.CP, len(d.IR))
	next := ptr[:d.NRows] // write cursors; ptr is not read again
	for k, j := range d.JC {
		for _, i := range d.IR[d.CP[k]:d.CP[k+1]] {
			t.IR[next[i]] = j
			next[i]++
		}
	}
	return t.index()
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
