package spmat

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The sort-based builders below are the reference implementations the
// counting/slicing code in this package replaced. Every production builder
// must reproduce them array for array.

// oracleToCSC sorts triples by (column, row) and drops duplicates.
func oracleToCSC(c *COO) *CSC {
	ent := append([]Triple(nil), c.Entries...)
	sort.Slice(ent, func(a, b int) bool {
		if ent[a].Col != ent[b].Col {
			return ent[a].Col < ent[b].Col
		}
		return ent[a].Row < ent[b].Row
	})
	m := &CSC{NRows: c.NRows, NCols: c.NCols, ColPtr: make([]int, c.NCols+1)}
	prevRow, prevCol := -1, -1
	for _, e := range ent {
		if e.Col == prevCol && e.Row == prevRow {
			continue
		}
		m.RowIdx = append(m.RowIdx, e.Row)
		m.ColPtr[e.Col+1]++
		prevRow, prevCol = e.Row, e.Col
	}
	for j := 0; j < c.NCols; j++ {
		m.ColPtr[j+1] += m.ColPtr[j]
	}
	return m
}

// oraclePermute stages the permuted triples in a COO and sorts them.
func oraclePermute(m *CSC, rowPerm, colPerm []int) *CSC {
	out := NewCOO(m.NRows, m.NCols)
	for _, e := range m.Triples() {
		out.Add(rowPerm[e.Row], colPerm[e.Col])
	}
	return oracleToCSC(out)
}

// oracleDistribute2D routes every nonzero into its block's COO and compiles
// each block by sorting.
func oracleDistribute2D(a *CSC, pr, pc int) [][]*LocalMatrix {
	rowBlocks := SplitRange(a.NRows, pr)
	colBlocks := SplitRange(a.NCols, pc)
	coos := make([][]*COO, pr)
	for i := range coos {
		coos[i] = make([]*COO, pc)
		for j := range coos[i] {
			coos[i][j] = NewCOO(rowBlocks[i].Len(), colBlocks[j].Len())
		}
	}
	for _, e := range a.Triples() {
		pi, pj := OwnerOf(a.NRows, pr, e.Row), OwnerOf(a.NCols, pc, e.Col)
		coos[pi][pj].Add(e.Row-rowBlocks[pi].Lo, e.Col-colBlocks[pj].Lo)
	}
	out := make([][]*LocalMatrix, pr)
	for i := range out {
		out[i] = make([]*LocalMatrix, pc)
		for j := range out[i] {
			out[i][j] = &LocalMatrix{Rows: rowBlocks[i], Cols: colBlocks[j], M: oracleToCSC(coos[i][j]).ToDCSC()}
		}
	}
	return out
}

func sameCSC(a, b *CSC) error {
	if a.NRows != b.NRows || a.NCols != b.NCols {
		return fmt.Errorf("dims %dx%d vs %dx%d", a.NRows, a.NCols, b.NRows, b.NCols)
	}
	if !slices.Equal(a.ColPtr, b.ColPtr) {
		return fmt.Errorf("ColPtr %v vs %v", a.ColPtr, b.ColPtr)
	}
	if !slices.Equal(a.RowIdx, b.RowIdx) {
		return fmt.Errorf("RowIdx %v vs %v", a.RowIdx, b.RowIdx)
	}
	return nil
}

func sameBlock(a, b *LocalMatrix) error {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return fmt.Errorf("ranges %v x %v vs %v x %v", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	x, y := a.M, b.M
	if x.NRows != y.NRows || x.NCols != y.NCols {
		return fmt.Errorf("dims %dx%d vs %dx%d", x.NRows, x.NCols, y.NRows, y.NCols)
	}
	if !slices.Equal(x.JC, y.JC) || !slices.Equal(x.CP, y.CP) || !slices.Equal(x.IR, y.IR) {
		return fmt.Errorf("JC/CP/IR %v/%v/%v vs %v/%v/%v", x.JC, x.CP, x.IR, y.JC, y.CP, y.IR)
	}
	return nil
}

// randomCOO draws a COO with duplicate entries and, when the density is low,
// empty rows and columns. Dimensions go down to 1, below every grid side used
// here, so some blocks are empty.
func randomCOO(rng *rand.Rand) *COO {
	nr, nc := 1+rng.Intn(30), 1+rng.Intn(30)
	c := NewCOO(nr, nc)
	for k := rng.Intn(3 * (nr + nc)); k > 0; k-- {
		i, j := rng.Intn(nr), rng.Intn(nc)
		c.Add(i, j)
		if rng.Intn(4) == 0 {
			c.Add(i, j)
		}
	}
	return c
}

var oracleGrids = [][2]int{{1, 1}, {1, 4}, {4, 1}, {2, 2}, {2, 3}, {3, 3}}

func TestToCSCMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		c := randomCOO(rng)
		if err := sameCSC(c.ToCSC(), oracleToCSC(c)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if err := sameCSC(NewCOO(0, 0).ToCSC(), oracleToCSC(NewCOO(0, 0))); err != nil {
		t.Fatalf("empty: %v", err)
	}
}

func TestPermuteMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 200; trial++ {
		m := randomCOO(rng).ToCSC()
		rp, cp := rng.Perm(m.NRows), rng.Perm(m.NCols)
		if err := sameCSC(m.Permute(rp, cp), oraclePermute(m, rp, cp)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := sameCSC(m.Permute(rp, nil), oraclePermute(m, rp, identity(m.NCols))); err != nil {
			t.Fatalf("trial %d, rows only: %v", trial, err)
		}
		if err := sameCSC(m.Permute(nil, cp), oraclePermute(m, identity(m.NRows), cp)); err != nil {
			t.Fatalf("trial %d, columns only: %v", trial, err)
		}
	}
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func TestDCSCTransposeMatchesCSC(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		m := randomCOO(rng).ToCSC()
		got := &LocalMatrix{M: m.ToDCSC().Transpose()}
		want := &LocalMatrix{M: m.Transpose().ToDCSC()}
		if err := sameBlock(got, want); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestDistributeMatchesSortOracle checks Distribute2D and DistributeRanks
// against the COO+sort builder, block for block, on A and on Aᵀ.
func TestDistributeMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 100; trial++ {
		a := randomCOO(rng).ToCSC()
		at := a.Transpose()
		for _, g := range oracleGrids {
			pr, pc := g[0], g[1]
			want, wantT := oracleDistribute2D(a, pr, pc), oracleDistribute2D(at, pr, pc)
			dist, distT := Distribute2D(a, pr, pc), Distribute2D(at, pr, pc)
			blocks := DistributeRanks(a, pr, pc, nil)
			for i := 0; i < pr; i++ {
				for j := 0; j < pc; j++ {
					for _, c := range []struct {
						name      string
						got, want *LocalMatrix
					}{
						{"Distribute2D", dist[i][j], want[i][j]},
						{"Distribute2D(Aᵀ)", distT[i][j], wantT[i][j]},
						{"DistributeRanks A", blocks[i][j], want[i][j]},
					} {
						if err := sameBlock(c.got, c.want); err != nil {
							t.Fatalf("trial %d, %dx%d %dx%d grid, block (%d,%d), %s: %v",
								trial, a.NRows, a.NCols, pr, pc, i, j, c.name, err)
						}
					}
				}
			}
		}
	}
}

// TestDistributeRanksBuildsOnlyListed pins the per-rank contract: listed
// ranks get the row-major (r/pc, r%pc) blocks of A, every other entry
// stays nil.
func TestDistributeRanksBuildsOnlyListed(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	a := randomCOO(rng).ToCSC()
	for _, g := range oracleGrids {
		pr, pc := g[0], g[1]
		all := DistributeRanks(a, pr, pc, nil)
		for _, ranks := range [][]int{{0}, {pr*pc - 1}, {pr*pc - 1, 0}, {}} {
			blocks := DistributeRanks(a, pr, pc, ranks)
			for i := 0; i < pr; i++ {
				for j := 0; j < pc; j++ {
					hosted := slices.Contains(ranks, i*pc+j)
					if !hosted {
						if blocks[i][j] != nil {
							t.Fatalf("%dx%d grid, ranks %v: unlisted block (%d,%d) was built", pr, pc, ranks, i, j)
						}
						continue
					}
					if err := sameBlock(blocks[i][j], all[i][j]); err != nil {
						t.Fatalf("%dx%d grid, ranks %v, A block (%d,%d): %v", pr, pc, ranks, i, j, err)
					}
				}
			}
		}
	}
}
