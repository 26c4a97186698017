package spmat

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustCSC(t *testing.T, nrows, ncols int, entries ...[2]int) *CSC {
	t.Helper()
	c := NewCOO(nrows, ncols)
	for _, e := range entries {
		c.Add(e[0], e[1])
	}
	return c.ToCSC()
}

func TestCOOToCSCBasic(t *testing.T) {
	m := mustCSC(t, 3, 4, [2]int{2, 0}, [2]int{0, 0}, [2]int{1, 2}, [2]int{0, 3}, [2]int{2, 3})
	if m.NNZ() != 5 {
		t.Fatalf("nnz = %d, want 5", m.NNZ())
	}
	wantPtr := []int{0, 2, 2, 3, 5}
	if !reflect.DeepEqual(m.ColPtr, wantPtr) {
		t.Fatalf("ColPtr = %v, want %v", m.ColPtr, wantPtr)
	}
	wantIdx := []int{0, 2, 1, 0, 2}
	if !reflect.DeepEqual(m.RowIdx, wantIdx) {
		t.Fatalf("RowIdx = %v, want %v", m.RowIdx, wantIdx)
	}
}

func TestCOODuplicatesRemoved(t *testing.T) {
	m := mustCSC(t, 2, 2, [2]int{0, 1}, [2]int{0, 1}, [2]int{1, 0}, [2]int{0, 1})
	if m.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2 after dedup", m.NNZ())
	}
	if !m.Has(0, 1) || !m.Has(1, 0) || m.Has(0, 0) || m.Has(1, 1) {
		t.Fatal("wrong structure after dedup")
	}
}

func TestCOOAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range Add")
		}
	}()
	NewCOO(2, 2).Add(2, 0)
}

func TestEmptyMatrix(t *testing.T) {
	m := NewCOO(0, 0).ToCSC()
	if m.NNZ() != 0 || len(m.ColPtr) != 1 {
		t.Fatalf("empty matrix malformed: %+v", m)
	}
	tr := m.Transpose()
	if tr.NNZ() != 0 {
		t.Fatal("transpose of empty not empty")
	}
	d := toDCSC(m)
	if d.NZC() != 0 || d.NNZ() != 0 {
		t.Fatal("DCSC of empty not empty")
	}
}

func TestHasBinarySearch(t *testing.T) {
	m := mustCSC(t, 6, 1, [2]int{0, 0}, [2]int{2, 0}, [2]int{5, 0})
	for i := 0; i < 6; i++ {
		want := i == 0 || i == 2 || i == 5
		if m.Has(i, 0) != want {
			t.Errorf("Has(%d,0) = %v, want %v", i, m.Has(i, 0), want)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		nr, nc := 1+rng.Intn(40), 1+rng.Intn(40)
		c := NewCOO(nr, nc)
		for k := 0; k < rng.Intn(200); k++ {
			c.Add(rng.Intn(nr), rng.Intn(nc))
		}
		m := c.ToCSC()
		tt := m.Transpose().Transpose()
		if !m.Equal(tt) {
			t.Fatalf("trial %d: transpose not an involution", trial)
		}
	}
}

func TestTransposeStructure(t *testing.T) {
	m := mustCSC(t, 3, 2, [2]int{0, 0}, [2]int{2, 0}, [2]int{1, 1})
	tr := m.Transpose()
	if tr.NRows != 2 || tr.NCols != 3 {
		t.Fatalf("transpose dims %dx%d", tr.NRows, tr.NCols)
	}
	for _, e := range m.Triples() {
		if !tr.Has(e.Col, e.Row) {
			t.Fatalf("transpose missing (%d,%d)", e.Col, e.Row)
		}
	}
}

func TestRowDegrees(t *testing.T) {
	m := mustCSC(t, 3, 3, [2]int{0, 0}, [2]int{0, 1}, [2]int{0, 2}, [2]int{2, 1})
	want := []int{3, 0, 1}
	if got := m.RowDegrees(); !reflect.DeepEqual(got, want) {
		t.Fatalf("RowDegrees = %v, want %v", got, want)
	}
}

func TestPermuteIdentity(t *testing.T) {
	m := mustCSC(t, 4, 4, [2]int{0, 1}, [2]int{3, 2}, [2]int{2, 0})
	if !m.Equal(m.Permute(nil, nil)) {
		t.Fatal("identity permutation changed matrix")
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		nr, nc := 2+rng.Intn(30), 2+rng.Intn(30)
		c := NewCOO(nr, nc)
		for k := 0; k < rng.Intn(150); k++ {
			c.Add(rng.Intn(nr), rng.Intn(nc))
		}
		m := c.ToCSC()
		rp := rng.Perm(nr)
		cp := rng.Perm(nc)
		inv := func(p []int) []int {
			q := make([]int, len(p))
			for i, v := range p {
				q[v] = i
			}
			return q
		}
		back := m.Permute(rp, cp).Permute(inv(rp), inv(cp))
		if !m.Equal(back) {
			t.Fatalf("trial %d: permute round-trip failed", trial)
		}
	}
}

func TestPermutePreservesEntries(t *testing.T) {
	m := mustCSC(t, 3, 3, [2]int{0, 0}, [2]int{1, 1}, [2]int{2, 2})
	rp := []int{2, 0, 1}
	cp := []int{1, 2, 0}
	pm := m.Permute(rp, cp)
	for _, e := range m.Triples() {
		if !pm.Has(rp[e.Row], cp[e.Col]) {
			t.Fatalf("permuted matrix missing image of (%d,%d)", e.Row, e.Col)
		}
	}
}

func TestDCSCRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		nr, nc := 1+rng.Intn(50), 1+rng.Intn(50)
		c := NewCOO(nr, nc)
		for k := 0; k < rng.Intn(100); k++ {
			c.Add(rng.Intn(nr), rng.Intn(nc))
		}
		m := c.ToCSC()
		back := toDCSC(m).ToCSC()
		if !m.Equal(back) {
			t.Fatalf("trial %d: DCSC round trip failed", trial)
		}
	}
}

func TestDCSCHypersparse(t *testing.T) {
	// 1000 columns but only 2 nonempty: DCSC must store 2 columns.
	m := mustCSC(t, 10, 1000, [2]int{3, 17}, [2]int{5, 900}, [2]int{7, 900})
	d := toDCSC(m)
	if d.NZC() != 2 {
		t.Fatalf("NZC = %d, want 2", d.NZC())
	}
	if got := d.FindCol(900); len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Fatalf("FindCol(900) = %v", got)
	}
	if d.FindCol(16) != nil {
		t.Fatal("FindCol(16) should be nil for empty column")
	}
	if d.FindCol(999) != nil {
		t.Fatal("FindCol(999) should be nil past last nonempty column")
	}
}

func TestDCSCColByIndex(t *testing.T) {
	m := mustCSC(t, 4, 6, [2]int{1, 2}, [2]int{0, 2}, [2]int{3, 5})
	d := toDCSC(m)
	col0, rows0 := d.ColByIndex(0)
	if col0 != 2 || len(rows0) != 2 {
		t.Fatalf("ColByIndex(0) = %d %v", col0, rows0)
	}
	col1, rows1 := d.ColByIndex(1)
	if col1 != 5 || len(rows1) != 1 || rows1[0] != 3 {
		t.Fatalf("ColByIndex(1) = %d %v", col1, rows1)
	}
}

func TestSplitRangeCoversExactly(t *testing.T) {
	f := func(n uint16, parts uint8) bool {
		p := int(parts%32) + 1
		blocks := splitRange(int(n), p)
		if len(blocks) != p {
			return false
		}
		prev := 0
		for _, b := range blocks {
			if b.Lo != prev || b.Hi < b.Lo {
				return false
			}
			prev = b.Hi
		}
		return prev == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitRangeBalanced(t *testing.T) {
	blocks := splitRange(10, 3)
	sizes := []int{blocks[0].Len(), blocks[1].Len(), blocks[2].Len()}
	if !reflect.DeepEqual(sizes, []int{4, 3, 3}) {
		t.Fatalf("sizes = %v, want [4 3 3]", sizes)
	}
}

func TestOwnerOfMatchesSplitRange(t *testing.T) {
	f := func(n uint16, parts uint8) bool {
		p := int(parts%32) + 1
		nn := int(n%500) + 1
		blocks := splitRange(nn, p)
		for k, b := range blocks {
			if BlockAt(nn, p, k) != b {
				return false
			}
		}
		for g := 0; g < nn; g++ {
			o := OwnerOf(nn, p, g)
			if o < 0 || o >= p || !blocks[o].Contains(g) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDistribute2DPartitionsNonzeros(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, gridDim := range [][2]int{{1, 1}, {2, 2}, {3, 2}, {1, 4}, {4, 1}} {
		pr, pc := gridDim[0], gridDim[1]
		nr, nc := 17, 23
		c := NewCOO(nr, nc)
		for k := 0; k < 120; k++ {
			c.Add(rng.Intn(nr), rng.Intn(nc))
		}
		m := c.ToCSC()
		dist := Distribute2D(m, pr, pc)

		total := 0
		rebuilt := NewCOO(nr, nc)
		for i := 0; i < pr; i++ {
			for j := 0; j < pc; j++ {
				lm := dist[i][j]
				total += lm.M.NNZ()
				local := lm.M.ToCSC()
				for _, e := range local.Triples() {
					rebuilt.Add(e.Row+lm.Rows.Lo, e.Col+lm.Cols.Lo)
				}
			}
		}
		if total != m.NNZ() {
			t.Fatalf("grid %dx%d: nonzeros split to %d, want %d", pr, pc, total, m.NNZ())
		}
		if !rebuilt.ToCSC().Equal(m) {
			t.Fatalf("grid %dx%d: reassembled matrix differs", pr, pc)
		}
	}
}

func TestDistribute2DBlockBounds(t *testing.T) {
	m := mustCSC(t, 10, 10, [2]int{0, 0}, [2]int{9, 9}, [2]int{4, 6})
	dist := Distribute2D(m, 3, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			lm := dist[i][j]
			if lm.M.NRows != lm.Rows.Len() || lm.M.NCols != lm.Cols.Len() {
				t.Fatalf("block (%d,%d) dims %dx%d, want %dx%d",
					i, j, lm.M.NRows, lm.M.NCols, lm.Rows.Len(), lm.Cols.Len())
			}
		}
	}
}

func BenchmarkToCSC(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	c := NewCOO(1<<14, 1<<14)
	for k := 0; k < 1<<18; k++ {
		c.Add(rng.Intn(1<<14), rng.Intn(1<<14))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.ToCSC()
	}
}

func BenchmarkTranspose(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	c := NewCOO(1<<14, 1<<14)
	for k := 0; k < 1<<18; k++ {
		c.Add(rng.Intn(1<<14), rng.Intn(1<<14))
	}
	m := c.ToCSC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Transpose()
	}
}
