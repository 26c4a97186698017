package distio

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mcmdist/internal/core"
	"mcmdist/internal/grid"
	"mcmdist/internal/matching"
	"mcmdist/internal/mpi"
	"mcmdist/internal/mtx"
	"mcmdist/internal/rmat"
	"mcmdist/internal/spmat"
)

func writeTemp(t *testing.T, a *spmat.CSC) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.mtx")
	if err := mtx.WriteFile(path, a); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadHeader(t *testing.T) {
	a := rmat.MustGenerate(rmat.ER, 6, 4, 1)
	path := writeTemp(t, a)
	h, err := ReadHeader(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.NRows != a.NRows || h.NCols != a.NCols || h.NNZ != a.NNZ() {
		t.Fatalf("header %+v vs matrix %dx%d nnz %d", h, a.NRows, a.NCols, a.NNZ())
	}
	if h.Symmetric || !h.Pattern {
		t.Fatalf("flags %+v", h)
	}
}

func TestReadHeaderErrors(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"empty":    "",
		"banner":   "not a banner\n",
		"array":    "%%MatrixMarket matrix array real general\n2 2\n",
		"nosize":   "%%MatrixMarket matrix coordinate pattern general\n% only comments\n",
		"badsize":  "%%MatrixMarket matrix coordinate pattern general\na b c\n",
		"skew":     "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 5\n",
		"badfield": "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 1 1\n",
	}
	for name, content := range cases {
		path := filepath.Join(dir, name+".mtx")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadHeader(path); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ReadHeader(filepath.Join(dir, "missing.mtx")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestReadBlockReassembles: the union of all ranks' blocks equals the
// serially-loaded matrix, and matches spmat.Distribute2D exactly.
func TestReadBlockReassembles(t *testing.T) {
	a := rmat.MustGenerate(rmat.G500, 7, 4, 9)
	path := writeTemp(t, a)
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {2, 3}} {
		pr, pc := shape[0], shape[1]
		want := spmat.Distribute2D(a, pr, pc)
		_, err := mpi.Run(pr*pc, func(c *mpi.Comm) error {
			g, err := grid.New(c, pr, pc)
			if err != nil {
				return err
			}
			lm, err := ReadBlock(path, g)
			if err != nil {
				return err
			}
			ref := want[g.MyRow][g.MyCol]
			if lm.Rows != ref.Rows || lm.Cols != ref.Cols {
				return fmt.Errorf("rank %d: ranges %v/%v vs %v/%v",
					c.Rank(), lm.Rows, lm.Cols, ref.Rows, ref.Cols)
			}
			if !lm.M.ToCSC().Equal(ref.M.ToCSC()) {
				return fmt.Errorf("rank %d: block content differs", c.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatalf("shape %v: %v", shape, err)
		}
	}
}

// TestReadBlockSymmetric: symmetric files expand on the fly per block.
func TestReadBlockSymmetric(t *testing.T) {
	content := "%%MatrixMarket matrix coordinate integer symmetric\n4 4 3\n1 1 5\n3 1 7\n4 2 9\n"
	path := filepath.Join(t.TempDir(), "s.mtx")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	// Serial reference through the mtx package.
	ref, err := mtx.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = mpi.Run(4, func(c *mpi.Comm) error {
		g, err := grid.New(c, 2, 2)
		if err != nil {
			return err
		}
		lm, err := ReadBlock(path, g)
		if err != nil {
			return err
		}
		local := lm.M.ToCSC()
		for _, e := range local.Triples() {
			if !ref.Has(e.Row+lm.Rows.Lo, e.Col+lm.Cols.Lo) {
				return fmt.Errorf("spurious entry (%d,%d)", e.Row+lm.Rows.Lo, e.Col+lm.Cols.Lo)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndFromDistributedLoad: load blocks with distio on every rank,
// run MCM-DIST, compare to the oracle — the full "already distributed"
// pipeline of Section VI-E without ever gathering the matrix.
func TestEndToEndFromDistributedLoad(t *testing.T) {
	a := rmat.MustGenerate(rmat.ER, 7, 4, 5)
	path := writeTemp(t, a)
	want := matching.HopcroftKarp(a, nil).Cardinality()

	const side = 2
	var card int
	_, err := mpi.Run(side*side, func(c *mpi.Comm) error {
		g, err := grid.New(c, side, side)
		if err != nil {
			return err
		}
		lm, err := ReadBlock(path, g)
		if err != nil {
			return err
		}
		s := core.NewSolver(g, core.Config{Procs: side * side, Init: core.InitGreedy},
			a.NRows, a.NCols, lm)
		mater, matec := s.MaximalInit()
		if err := s.RunEngineByName(core.EngineBFS, mater, matec); err != nil {
			return err
		}
		if c.Rank() == 0 {
			card = s.Stats.Cardinality
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if card != want {
		t.Fatalf("distributed-load MCM %d, oracle %d", card, want)
	}
}

func TestReadBlockErrors(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"badentry":   "%%MatrixMarket matrix coordinate pattern general\n2 2 1\nx\n",
		"badrow":     "%%MatrixMarket matrix coordinate pattern general\n2 2 1\nx 1\n",
		"badcol":     "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 y\n",
		"outofrange": "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n",
		"wrongcount": "%%MatrixMarket matrix coordinate pattern general\n2 2 5\n1 1\n",
	}
	for name, content := range cases {
		path := filepath.Join(dir, name+".mtx")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := mpi.Run(1, func(c *mpi.Comm) error {
			g, _ := grid.New(c, 1, 1)
			if _, err := ReadBlock(path, g); err == nil {
				return fmt.Errorf("%s accepted", name)
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}
	// Missing file.
	_, err := mpi.Run(1, func(c *mpi.Comm) error {
		g, _ := grid.New(c, 1, 1)
		if _, err := ReadBlock(filepath.Join(dir, "missing.mtx"), g); err == nil {
			return fmt.Errorf("missing file accepted")
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
}
