package spmat

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// bsearchCol is the binary search over JC that the AUX index replaced; it is
// the reference FindCol must reproduce.
func bsearchCol(d *DCSC, j int) []int {
	k, ok := slices.BinarySearch(d.JC, j)
	if !ok {
		return nil
	}
	return d.IR[d.CP[k]:d.CP[k+1]]
}

// checkFindCol compares FindCol with the reference on every column index,
// plus -1 and NCols, and bounds the AUX index by nzc+1 ints.
func checkFindCol(d *DCSC) error {
	if len(d.aux) > max(d.NZC(), 1)+1 {
		return fmt.Errorf("aux holds %d ints for nzc %d", len(d.aux), d.NZC())
	}
	for j := -1; j <= d.NCols; j++ {
		got, want := d.FindCol(j), bsearchCol(d, j)
		if (got == nil) != (want == nil) || !slices.Equal(got, want) {
			return fmt.Errorf("%dx%d nzc %d: FindCol(%d) = %v, want %v", d.NRows, d.NCols, d.NZC(), j, got, want)
		}
	}
	return nil
}

// findColShapes are the block shapes the AUX index must cover: hypersparse
// (nzc ≪ ncols, including every nonempty column bunched into one chunk),
// dense, empty and single-column.
func findColShapes(rng *rand.Rand) []*CSC {
	var out []*CSC
	add := func(nr, nc int, entries func(c *COO)) {
		c := NewCOO(nr, nc)
		entries(c)
		out = append(out, c.ToCSC())
	}
	add(40, 5000, func(c *COO) {
		for k := 0; k < 9; k++ {
			c.Add(rng.Intn(40), rng.Intn(5000))
		}
	})
	add(10, 1000, func(c *COO) {
		for j := 0; j < 10; j++ {
			c.Add(j, j)
		}
	})
	add(12, 15, func(c *COO) {
		for i := 0; i < 12; i++ {
			for j := 0; j < 15; j++ {
				c.Add(i, j)
			}
		}
	})
	add(0, 0, func(*COO) {})
	add(7, 30, func(*COO) {})
	add(9, 1, func(c *COO) { c.Add(2, 0); c.Add(8, 0) })
	add(9, 1, func(*COO) {})
	for trial := 0; trial < 100; trial++ {
		out = append(out, randomCOO(rng).ToCSC())
	}
	return out
}

// TestFindColMatchesBinarySearch checks the AUX lookup of every DCSC
// constructor: ToDCSC, Submatrix (through DistributeRanks) and Transpose.
func TestFindColMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for n, m := range findColShapes(rng) {
		d := m.ToDCSC()
		built := map[string]*DCSC{"ToDCSC": d, "Transpose": d.Transpose()}
		for _, g := range oracleGrids {
			blocks := DistributeRanks(m, g[0], g[1], nil)
			for i := range blocks {
				for j := range blocks[i] {
					at := fmt.Sprintf("%dx%d (%d,%d)", g[0], g[1], i, j)
					built["Submatrix "+at] = blocks[i][j].M
				}
			}
		}
		for name, d := range built {
			if err := checkFindCol(d); err != nil {
				t.Fatalf("shape %d, %s: %v", n, name, err)
			}
		}
	}
}
