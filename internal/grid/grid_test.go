package grid

import (
	"fmt"
	"testing"

	"mcmdist/internal/mpi"
)

func TestSquare(t *testing.T) {
	cases := map[int]int{0: 0, -3: 0, 1: 1, 2: 1, 3: 1, 4: 2, 8: 2, 9: 3, 15: 3, 16: 4, 24: 4, 25: 5, 10000: 100}
	for p, want := range cases {
		if got := Square(p); got != want {
			t.Errorf("Square(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestNewRejectsBadShape(t *testing.T) {
	_, err := mpi.Run(4, func(c *mpi.Comm) error {
		if _, err := New(c, 3, 2); err == nil {
			return fmt.Errorf("3x2 accepted on 4 ranks")
		}
		// Must still be collectively consistent: no split happened, fine.
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGridCoordinates(t *testing.T) {
	_, err := mpi.Run(6, func(c *mpi.Comm) error {
		g, err := New(c, 2, 3)
		if err != nil {
			return err
		}
		if g.MyRow != c.Rank()/3 || g.MyCol != c.Rank()%3 {
			return fmt.Errorf("rank %d at (%d,%d)", c.Rank(), g.MyRow, g.MyCol)
		}
		if g.Row.Size() != 3 || g.Col.Size() != 2 {
			return fmt.Errorf("row size %d col size %d", g.Row.Size(), g.Col.Size())
		}
		if g.Row.Rank() != g.MyCol || g.Col.Rank() != g.MyRow {
			return fmt.Errorf("sub-comm ranks (%d,%d) vs coords (%d,%d)",
				g.Row.Rank(), g.Col.Rank(), g.MyCol, g.MyRow)
		}
		if g.RankAt(g.MyRow, g.MyCol) != c.Rank() {
			return fmt.Errorf("RankAt inverse broken for rank %d", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGridRowColCollectives(t *testing.T) {
	_, err := mpi.Run(9, func(c *mpi.Comm) error {
		g, err := New(c, 3, 3)
		if err != nil {
			return err
		}
		// Sum of grid columns within a row: 0+1+2 = 3 for every row.
		if got := g.Row.Allreduce(mpi.OpSum, int64(g.MyCol)); got != 3 {
			return fmt.Errorf("row sum = %d", got)
		}
		// Sum of grid rows within a column: 0+1+2 = 3.
		if got := g.Col.Allreduce(mpi.OpSum, int64(g.MyRow)); got != 3 {
			return fmt.Errorf("col sum = %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
