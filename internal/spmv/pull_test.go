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

// runPull executes MulPull on a grid and returns the gathered result.
func runPull(t *testing.T, a *spmat.CSC, x map[int]semiring.Vertex,
	visited map[int]bool, op semiring.AddOp, pr, pc int) []semiring.Vertex {
	t.Helper()
	blocks := spmat.Distribute2D(a, pr, pc)
	var result []semiring.Vertex
	_, err := mpi.Run(pr*pc, func(c *mpi.Comm) error {
		g, err := grid.New(c, pr, pc)
		if err != nil {
			return err
		}
		local := blocks[g.MyRow][g.MyCol]
		rowAdj := RowMajor(local)
		xl := dvec.NewLayout(g, a.NCols, dvec.ColAligned)
		yl := dvec.NewLayout(g, a.NRows, dvec.RowAligned)
		fx := dvec.NewSparseV(xl)
		r := xl.MyRange()
		for gi := r.Lo; gi < r.Hi; gi++ {
			if v, ok := x[gi]; ok {
				fx.Append(gi, v)
			}
		}
		vis := dvec.NewDense(yl, semiring.None)
		vr := yl.MyRange()
		for gi := vr.Lo; gi < vr.Hi; gi++ {
			if visited[gi] {
				vis.SetAt(gi, 1)
			}
		}
		y, _ := MulPull(local, rowAdj, fx, vis, op, yl, nil)
		got := y.GatherVertices()
		if c.Rank() == 0 {
			result = got
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return result
}

// TestPullReachesSameRowsAsPush: the set of discovered rows must be exactly
// the push direction's, and every parent must be a frontier neighbor of its
// row carrying that neighbor's root.
func TestPullReachesSameRowsAsPush(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 8; trial++ {
		nr, nc := 10+rng.Intn(40), 10+rng.Intn(40)
		coo := spmat.NewCOO(nr, nc)
		for k := 0; k < 6*(nr+nc); k++ {
			coo.Add(rng.Intn(nr), rng.Intn(nc))
		}
		a := coo.ToCSC()
		x := make(map[int]semiring.Vertex)
		for j := 0; j < nc; j++ {
			if rng.Intn(2) == 0 {
				x[j] = semiring.Self(int64(j))
			}
		}
		for _, shape := range [][2]int{{1, 1}, {2, 2}, {3, 2}} {
			push := runMul(t, a, x, semiring.MinParent, shape[0], shape[1])
			pull := runPull(t, a, x, nil, semiring.MinParent, shape[0], shape[1])
			for i := 0; i < nr; i++ {
				if (push[i].Parent == semiring.None) != (pull[i].Parent == semiring.None) {
					t.Fatalf("trial %d shape %v row %d: push %v pull %v — reach sets differ",
						trial, shape, i, push[i], pull[i])
				}
				if pull[i].Parent == semiring.None {
					continue
				}
				p := int(pull[i].Parent)
				if !a.Has(i, p) {
					t.Fatalf("row %d: pull parent %d is not a neighbor", i, p)
				}
				fv, ok := x[p]
				if !ok {
					t.Fatalf("row %d: pull parent %d not in frontier", i, p)
				}
				if pull[i].Root != fv.Root {
					t.Fatalf("row %d: root %d, want frontier %d's root %d",
						i, pull[i].Root, p, fv.Root)
				}
			}
		}
	}
}

// TestPullSkipsVisitedRows: rows marked visited must not be rediscovered.
func TestPullSkipsVisitedRows(t *testing.T) {
	coo := spmat.NewCOO(4, 4)
	for i := 0; i < 4; i++ {
		coo.Add(i, 0)
	}
	a := coo.ToCSC()
	x := map[int]semiring.Vertex{0: semiring.Self(0)}
	visited := map[int]bool{1: true, 3: true}
	got := runPull(t, a, x, visited, semiring.MinParent, 2, 2)
	for i := 0; i < 4; i++ {
		wantHit := !visited[i]
		if (got[i].Parent != semiring.None) != wantHit {
			t.Fatalf("row %d: %v, visited=%v", i, got[i], visited[i])
		}
	}
}

// TestPullWorkSavings: with a full frontier, pull touches at most one edge
// per row plus misses, far fewer than push's full traversal on dense rows.
func TestPullWorkSavings(t *testing.T) {
	// Every row adjacent to every column (a dense 32x32 block).
	const n = 32
	coo := spmat.NewCOO(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			coo.Add(i, j)
		}
	}
	a := coo.ToCSC()
	blocks := spmat.Distribute2D(a, 2, 2)

	measure := func(pull bool) int64 {
		w, err := mpi.Run(4, func(c *mpi.Comm) error {
			g, err := grid.New(c, 2, 2)
			if err != nil {
				return err
			}
			local := blocks[g.MyRow][g.MyCol]
			xl := dvec.NewLayout(g, n, dvec.ColAligned)
			yl := dvec.NewLayout(g, n, dvec.RowAligned)
			fx := dvec.NewSparseV(xl)
			r := xl.MyRange()
			for gi := r.Lo; gi < r.Hi; gi++ {
				fx.Append(gi, semiring.Self(int64(gi)))
			}
			if pull {
				_, _ = MulPull(local, RowMajor(local), fx, dvec.NewDense(yl, semiring.None), semiring.MinParent, yl, nil)
			} else {
				Mul(local, fx, semiring.MinParent, yl, nil)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.TotalMeter().Work
	}

	pushWork := measure(false)
	pullWork := measure(true)
	if pullWork*4 > pushWork {
		t.Fatalf("pull work %d not far below push work %d on a dense block with full frontier",
			pullWork, pushWork)
	}
}

func TestPullEmptyFrontier(t *testing.T) {
	a := rmat.MustGenerate(rmat.ER, 5, 4, 2)
	got := runPull(t, a, nil, nil, semiring.MinParent, 2, 2)
	for i, v := range got {
		if v.Parent != semiring.None {
			t.Fatalf("row %d = %v from empty frontier", i, v)
		}
	}
}

func TestRowMajorShape(t *testing.T) {
	a := rmat.MustGenerate(rmat.G500, 6, 4, 9)
	blocks := spmat.Distribute2D(a, 2, 2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			lm := blocks[i][j]
			ra := RowMajor(lm)
			if ra.NRows != lm.Cols.Len() || ra.NCols != lm.Rows.Len() {
				t.Fatalf("block (%d,%d): RowMajor dims %dx%d, block %dx%d",
					i, j, ra.NRows, ra.NCols, lm.Rows.Len(), lm.Cols.Len())
			}
			// Every (row, col) of the block appears as (col entry) in
			// RowMajor's column row.
			lc := lm.M.ToCSC()
			for _, e := range lc.Triples() {
				if !ra.Has(e.Col, e.Row) {
					t.Fatalf("block (%d,%d): RowMajor missing (%d,%d)", i, j, e.Col, e.Row)
				}
			}
		}
	}
}
