package dm

import (
	"math/rand"
	"testing"

	"mcmdist/internal/gen"
	"mcmdist/internal/matching"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

func randomBipartite(rng *rand.Rand, nr, nc, m int) *spmat.CSC {
	c := spmat.NewCOO(nr, nc)
	for k := 0; k < m; k++ {
		c.Add(rng.Intn(nr), rng.Intn(nc))
	}
	return c.ToCSC()
}

// checkCoarse validates every invariant of a coarse decomposition.
func checkCoarse(t *testing.T, a *spmat.CSC, m *matching.Matching, c *Coarse) {
	t.Helper()
	// Partition.
	if len(c.HR)+len(c.SR)+len(c.VR) != a.NRows {
		t.Fatalf("rows partition %d+%d+%d != %d", len(c.HR), len(c.SR), len(c.VR), a.NRows)
	}
	if len(c.HC)+len(c.SC)+len(c.VC) != a.NCols {
		t.Fatalf("cols partition %d+%d+%d != %d", len(c.HC), len(c.SC), len(c.VC), a.NCols)
	}
	rowBlock := make(map[int]byte)
	for _, i := range c.HR {
		rowBlock[i] = 'H'
	}
	for _, i := range c.SR {
		rowBlock[i] = 'S'
	}
	for _, i := range c.VR {
		rowBlock[i] = 'V'
	}
	colBlock := make(map[int]byte)
	for _, j := range c.HC {
		colBlock[j] = 'H'
	}
	for _, j := range c.SC {
		colBlock[j] = 'S'
	}
	for _, j := range c.VC {
		colBlock[j] = 'V'
	}
	if len(rowBlock) != a.NRows || len(colBlock) != a.NCols {
		t.Fatal("blocks overlap")
	}

	// Unmatched vertices live in their designated blocks.
	for i, mj := range m.MateR {
		if mj == semiring.None && rowBlock[i] != 'H' {
			t.Fatalf("unmatched row %d in block %c, want H", i, rowBlock[i])
		}
	}
	for j, mi := range m.MateC {
		if mi == semiring.None && colBlock[j] != 'V' {
			t.Fatalf("unmatched col %d in block %c, want V", j, colBlock[j])
		}
	}

	// Square block carries a perfect matching; matched pairs stay within a
	// block class.
	if len(c.SR) != len(c.SC) {
		t.Fatalf("square block %dx%d", len(c.SR), len(c.SC))
	}
	for _, i := range c.SR {
		mj := m.MateR[i]
		if mj == semiring.None || colBlock[int(mj)] != 'S' {
			t.Fatalf("square row %d matched to %d (block %c)", i, mj, colBlock[int(mj)])
		}
	}
	for _, j := range c.HC {
		mi := m.MateC[j]
		if mi == semiring.None || rowBlock[int(mi)] != 'H' {
			t.Fatalf("horizontal col %d not matched into HR", j)
		}
	}
	for _, i := range c.VR {
		mj := m.MateR[i]
		if mj == semiring.None || colBlock[int(mj)] != 'V' {
			t.Fatalf("vertical row %d not matched into VC", i)
		}
	}

	// Zero-block structure: edges incident to VC stay in VR; edges incident
	// to HR stay in HC.
	for j := 0; j < a.NCols; j++ {
		for _, i := range a.Col(j) {
			if colBlock[j] == 'V' && rowBlock[i] != 'V' {
				t.Fatalf("edge (%d,%d) leaves the vertical block", i, j)
			}
			if rowBlock[i] == 'H' && colBlock[j] != 'H' {
				t.Fatalf("edge (%d,%d) leaves the horizontal block", i, j)
			}
		}
	}

	// Structural rank (every HC and VR vertex matched, plus the perfect
	// matching of the square block) equals the matching cardinality.
	if rank := len(c.HC) + len(c.SC) + len(c.VR); rank != m.Cardinality() {
		t.Fatalf("structural rank %d != |M| %d", rank, m.Cardinality())
	}

	// The blocks partition the rows and the columns.
	if len(c.HR)+len(c.SR)+len(c.VR) != a.NRows || len(c.HC)+len(c.SC)+len(c.VC) != a.NCols {
		t.Fatal("blocks do not partition the rows and columns")
	}
}

func TestDecomposeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		nr, nc := 1+rng.Intn(50), 1+rng.Intn(50)
		a := randomBipartite(rng, nr, nc, rng.Intn(4*(nr+nc)))
		m := matching.HopcroftKarp(a, nil)
		c, err := Decompose(a, m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkCoarse(t, a, m, c)
	}
}

func TestDecomposeSuite(t *testing.T) {
	for _, sp := range gen.Suite()[:5] {
		a := gen.MustGenerate(sp, 7)
		m := matching.PothenFan(a, nil)
		c, err := Decompose(a, m)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		checkCoarse(t, a, m, c)
	}
}

func TestDecomposeRejectsNonMaximum(t *testing.T) {
	// r0-c0, r0-c1, r1-c1: matching {(r0,c1)} is maximal but not maximum.
	coo := spmat.NewCOO(2, 2)
	coo.Add(0, 0)
	coo.Add(0, 1)
	coo.Add(1, 1)
	a := coo.ToCSC()
	m := matching.NewMatching(2, 2)
	m.Match(0, 1)
	if _, err := Decompose(a, m); err == nil {
		t.Fatal("non-maximum matching accepted")
	}
}

func TestDecomposeRejectsInvalid(t *testing.T) {
	a := randomBipartite(rand.New(rand.NewSource(1)), 3, 3, 4)
	m := matching.NewMatching(3, 3)
	m.MateR[0] = 2 // inconsistent
	if _, err := Decompose(a, m); err == nil {
		t.Fatal("invalid matching accepted")
	}
}

func TestPerfectMatchingAllSquare(t *testing.T) {
	const n = 10
	coo := spmat.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i)
	}
	a := coo.ToCSC()
	m := matching.HopcroftKarp(a, nil)
	c, err := Decompose(a, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.SR) != n || len(c.SC) != n || len(c.HR) != 0 || len(c.VC) != 0 {
		t.Fatalf("identity should be all square: %v", c)
	}
}

func TestWideMatrixHorizontal(t *testing.T) {
	// 1 row, 3 columns all adjacent to it: MCM = 1, two unmatched columns:
	// the whole thing is the vertical block (reachable from unmatched cols).
	coo := spmat.NewCOO(1, 3)
	for j := 0; j < 3; j++ {
		coo.Add(0, j)
	}
	a := coo.ToCSC()
	m := matching.HopcroftKarp(a, nil)
	c, err := Decompose(a, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.VR) != 1 || len(c.VC) != 3 {
		t.Fatalf("expected pure vertical block, got %v", c)
	}
	if rank := len(c.HC) + len(c.SC) + len(c.VR); rank != 1 {
		t.Fatalf("structural rank %d", rank)
	}
}

func TestTallMatrixVertical(t *testing.T) {
	// 3 rows, 1 column: mirror case — pure horizontal block.
	coo := spmat.NewCOO(3, 1)
	for i := 0; i < 3; i++ {
		coo.Add(i, 0)
	}
	a := coo.ToCSC()
	m := matching.HopcroftKarp(a, nil)
	c, err := Decompose(a, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.HR) != 3 || len(c.HC) != 1 {
		t.Fatalf("expected pure horizontal block, got %v", c)
	}
}

func TestStringFormat(t *testing.T) {
	c := &Coarse{HR: []int{1}, HC: []int{}, SR: []int{2}, SC: []int{3}}
	if c.String() == "" {
		t.Fatal("empty String")
	}
}
