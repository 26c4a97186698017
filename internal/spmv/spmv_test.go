package spmv

import (
	"math/rand"
	"testing"

	"mcmdist/internal/dvec"
	"mcmdist/internal/grid"
	"mcmdist/internal/mpi"
	"mcmdist/internal/rmat"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

// serialMul is the reference single-process semiring SpMV.
func serialMul(a *spmat.CSC, x map[int]semiring.Vertex, op semiring.AddOp) map[int]semiring.Vertex {
	out := make(map[int]semiring.Vertex)
	for j, v := range x {
		cand := semiring.Multiply(int64(j), v)
		for _, i := range a.Col(j) {
			if old, ok := out[i]; ok {
				out[i] = op.Combine(old, cand)
			} else {
				out[i] = cand
			}
		}
	}
	return out
}

// runMul executes the distributed Mul on a pr x pc grid and returns the full
// result vector.
func runMul(t *testing.T, a *spmat.CSC, x map[int]semiring.Vertex, op semiring.AddOp, pr, pc int) []semiring.Vertex {
	t.Helper()
	blocks := spmat.Distribute2D(a, pr, pc)
	results := make([][]semiring.Vertex, pr*pc)
	_, err := mpi.Run(pr*pc, func(c *mpi.Comm) error {
		g, err := grid.New(c, pr, pc)
		if err != nil {
			return err
		}
		local := blocks[g.MyRow][g.MyCol]
		xl := dvec.NewLayout(g, a.NCols, dvec.ColAligned)
		yl := dvec.NewLayout(g, a.NRows, dvec.RowAligned)
		fx := dvec.NewSparseV(xl)
		r := xl.MyRange()
		for gi := r.Lo; gi < r.Hi; gi++ {
			if v, ok := x[gi]; ok {
				fx.Append(gi, v)
			}
		}
		y := Mul(local, fx, op, yl, nil)
		results[c.Rank()] = y.GatherVertices(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < pr*pc; r++ {
		for i := range results[0] {
			if results[r][i] != results[0][i] {
				t.Fatalf("rank %d disagrees at %d: %v vs %v", r, i, results[r][i], results[0][i])
			}
		}
	}
	return results[0]
}

func assertMatchesSerial(t *testing.T, a *spmat.CSC, x map[int]semiring.Vertex, op semiring.AddOp, pr, pc int) {
	t.Helper()
	got := runMul(t, a, x, op, pr, pc)
	want := serialMul(a, x, op)
	for i := 0; i < a.NRows; i++ {
		w, ok := want[i]
		if !ok {
			w = semiring.Vertex{Parent: semiring.None, Root: semiring.None}
		}
		if got[i] != w {
			t.Fatalf("grid %dx%d row %d: got %v, want %v", pr, pc, i, got[i], w)
		}
	}
}

func TestMulTinyMinParent(t *testing.T) {
	// 3x4 matrix: row 0 adjacent to cols 0,2; row 1 to col 1; row 2 to cols 2,3.
	coo := spmat.NewCOO(3, 4)
	for _, e := range [][2]int{{0, 0}, {0, 2}, {1, 1}, {2, 2}, {2, 3}} {
		coo.Add(e[0], e[1])
	}
	a := coo.ToCSC()
	x := map[int]semiring.Vertex{
		2: semiring.Self(2),
		3: semiring.Self(3),
	}
	got := runMul(t, a, x, semiring.MinParent, 2, 2)
	// Row 0 discovered by col 2, row 2 by min(2, 3) = 2; row 1 untouched.
	if got[0] != (semiring.Vertex{Parent: 2, Root: 2}) {
		t.Errorf("row 0 = %v", got[0])
	}
	if got[1].Parent != semiring.None {
		t.Errorf("row 1 = %v, want missing", got[1])
	}
	if got[2] != (semiring.Vertex{Parent: 2, Root: 2}) {
		t.Errorf("row 2 = %v", got[2])
	}
}

func TestMulMatchesSerialOnRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	shapes := [][2]int{{1, 1}, {2, 2}, {3, 3}, {2, 3}, {1, 4}}
	for trial := 0; trial < 6; trial++ {
		nr, nc := 10+rng.Intn(40), 10+rng.Intn(40)
		coo := spmat.NewCOO(nr, nc)
		for k := 0; k < 5*(nr+nc); k++ {
			coo.Add(rng.Intn(nr), rng.Intn(nc))
		}
		a := coo.ToCSC()
		x := make(map[int]semiring.Vertex)
		for j := 0; j < nc; j++ {
			if rng.Intn(3) == 0 {
				x[j] = semiring.Vertex{Parent: int64(rng.Intn(nc)), Root: int64(rng.Intn(nc))}
			}
		}
		for _, op := range []semiring.AddOp{semiring.MinParent, semiring.RandRoot, semiring.RandParent} {
			for _, s := range shapes {
				assertMatchesSerial(t, a, x, op, s[0], s[1])
			}
		}
	}
}

func TestMulEmptyFrontier(t *testing.T) {
	a := rmat.MustGenerate(rmat.ER, 5, 4, 1)
	got := runMul(t, a, nil, semiring.MinParent, 2, 2)
	for i, v := range got {
		if v.Parent != semiring.None {
			t.Fatalf("row %d = %v from empty frontier", i, v)
		}
	}
}

func TestMulRootInheritance(t *testing.T) {
	// A path structure: col 7 is the only frontier entry with root 42;
	// every reached row must carry root 42.
	coo := spmat.NewCOO(6, 9)
	for i := 0; i < 6; i++ {
		coo.Add(i, 7)
	}
	a := coo.ToCSC()
	x := map[int]semiring.Vertex{7: {Parent: 3, Root: 42}}
	got := runMul(t, a, x, semiring.RandRoot, 3, 3)
	for i := 0; i < 6; i++ {
		if got[i].Root != 42 || got[i].Parent != 7 {
			t.Fatalf("row %d = %v, want (7, 42)", i, got[i])
		}
	}
}

func TestMulWorkEfficiency(t *testing.T) {
	// Work metered must scale with the edges touched by the frontier, not
	// with nnz(A): a single-column frontier on a large matrix is cheap.
	a := rmat.MustGenerate(rmat.ER, 9, 8, 3)
	blocks := spmat.Distribute2D(a, 2, 2)
	w, err := mpi.Run(4, func(c *mpi.Comm) error {
		g, err := grid.New(c, 2, 2)
		if err != nil {
			return err
		}
		xl := dvec.NewLayout(g, a.NCols, dvec.ColAligned)
		yl := dvec.NewLayout(g, a.NRows, dvec.RowAligned)
		fx := dvec.NewSparseV(xl)
		if xl.MyRange().Contains(0) {
			fx.Append(0, semiring.Self(0))
		}
		Mul(blocks[g.MyRow][g.MyCol], fx, semiring.MinParent, yl, nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := w.TotalMeter().Work
	if total > int64(4*a.ColDegree(0)+64) {
		t.Fatalf("work %d for single-column frontier (deg %d): not work-efficient",
			total, a.ColDegree(0))
	}
}

func TestMulCommunicationPattern(t *testing.T) {
	// Expand is an allgather on the column comm (pr-1 msgs), fold an
	// all-to-all on the row comm (pc-1 msgs): pr+pc-2 messages per rank.
	const pr, pc = 3, 3
	a := rmat.MustGenerate(rmat.ER, 7, 8, 5)
	blocks := spmat.Distribute2D(a, pr, pc)
	w, err := mpi.Run(pr*pc, func(c *mpi.Comm) error {
		g, err := grid.New(c, pr, pc)
		if err != nil {
			return err
		}
		xl := dvec.NewLayout(g, a.NCols, dvec.ColAligned)
		yl := dvec.NewLayout(g, a.NRows, dvec.RowAligned)
		fx := dvec.NewSparseV(xl)
		r := xl.MyRange()
		for gi := r.Lo; gi < r.Hi; gi += 2 {
			fx.Append(gi, semiring.Self(int64(gi)))
		}
		Mul(blocks[g.MyRow][g.MyCol], fx, semiring.MinParent, yl, nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < pr*pc; rank++ {
		if m := w.RankMeter(rank); m.Msgs != pr+pc-2 {
			t.Errorf("rank %d msgs = %d, want %d", rank, m.Msgs, pr+pc-2)
		}
	}
}

func TestMulPanicsOnWrongAlignment(t *testing.T) {
	_, err := mpi.Run(1, func(c *mpi.Comm) error {
		g, err := grid.New(c, 1, 1)
		if err != nil {
			return err
		}
		a := rmat.MustGenerate(rmat.ER, 4, 4, 1)
		blocks := spmat.Distribute2D(a, 1, 1)
		bad := dvec.NewSparseV(dvec.NewLayout(g, a.NCols, dvec.RowAligned))
		defer func() {
			if recover() == nil {
				panic("expected panic for row-aligned frontier")
			}
		}()
		Mul(blocks[0][0], bad, semiring.MinParent, dvec.NewLayout(g, a.NRows, dvec.RowAligned), nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMulScale12Grid4(b *testing.B) {
	a := rmat.MustGenerate(rmat.G500, 12, 16, 1)
	blocks := spmat.Distribute2D(a, 2, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := mpi.Run(4, func(c *mpi.Comm) error {
			g, err := grid.New(c, 2, 2)
			if err != nil {
				return err
			}
			xl := dvec.NewLayout(g, a.NCols, dvec.ColAligned)
			yl := dvec.NewLayout(g, a.NRows, dvec.RowAligned)
			fx := dvec.NewSparseV(xl)
			r := xl.MyRange()
			for gi := r.Lo; gi < r.Hi; gi += 3 {
				fx.Append(gi, semiring.Self(int64(gi)))
			}
			Mul(blocks[g.MyRow][g.MyCol], fx, semiring.MinParent, yl, nil)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
