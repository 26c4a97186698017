package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mcmdist/internal/dvec"
	"mcmdist/internal/rt"
	"mcmdist/internal/spmat"
)

// oracleCountMul is the sort-based countMul the scatter-reduce receive
// replaced: the same serial counting multiply, each row routed with
// OwnerCoords, and the received union sorted by index with equal indices
// summed.
func oracleCountMul(s *Solver, x *dvec.SparseInt) *dvec.SparseInt {
	g := s.G
	var payload []int64
	for _, gi := range x.Idx {
		payload = append(payload, int64(gi), 1)
	}
	slab := g.Col.AllgathervInto(payload, nil)
	sc := rt.NewDisabled(nil).Scratch("count", s.AT.Rows.Len())
	g.World.AddWork(s.countRange(slab, 0, len(slab)/2, sc))
	parts := make([][]int64, g.PC)
	for r := 0; r < s.AT.Rows.Len(); r++ {
		if !sc.Has(r) {
			continue
		}
		gidx := s.AT.Rows.Lo + r
		_, j := s.ColTL.OwnerCoords(gidx)
		parts[j] = append(parts[j], int64(gidx), sc.Val[r].Parent)
	}
	flat := g.Row.AlltoallvFlat(parts, nil)
	pairs := make([][2]int64, len(flat)/2)
	for i := range pairs {
		pairs[i] = [2]int64{flat[2*i], flat[2*i+1]}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a][0] < pairs[b][0] })
	out := dvec.NewSparseInt(s.ColTL)
	for _, p := range pairs {
		if n := len(out.Idx); n > 0 && out.Idx[n-1] == int(p[0]) {
			out.Val[n-1] += p[1]
		} else {
			out.Append(int(p[0]), p[1])
		}
	}
	g.World.AddWork(out.LocalNnz())
	return out
}

// TestCountMulMatchesSortOracle checks countMul's range-walk routing and
// summing receive against the sort-based reference, entries and per-rank
// meters alike, on every grid shape, thread count and overlap setting. The
// frontier leaves every third rank empty.
func TestCountMulMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {2, 3}, {3, 3}} {
		pr, pc := shape[0], shape[1]
		for trial := 0; trial < 2; trial++ {
			a := randomBipartite(rng, 10+rng.Intn(900), 10+rng.Intn(900), 20+rng.Intn(4000))
			blocks, blocksT := spmat.DistributeRanks(a, pr, pc, nil)
			for threads := 1; threads <= 4; threads++ {
				for _, overlap := range []bool{true, false} {
					cfg := Config{Procs: pr * pc, Threads: threads, DisableOverlap: !overlap}
					err := RunDistributedGrid(pr, pc, a.NRows, a.NCols, blocks, blocksT, cfg, func(s *Solver) error {
						c := s.G.World
						x := dvec.NewSparseInt(s.RowTL)
						r := s.RowTL.MyRange()
						for gi := r.Lo; gi < r.Hi && c.Rank()%3 != 1; gi++ {
							if (gi*7+trial)%3 > 0 {
								x.Append(gi, 1)
							}
						}
						m0 := c.MeterSnapshot()
						got := s.countMul(x)
						m1 := c.MeterSnapshot()
						want := oracleCountMul(s, x)
						gotM, wantM := m1.Sub(m0), c.MeterSnapshot().Sub(m1)
						if !slices.Equal(got.Idx, want.Idx) || !slices.Equal(got.Val, want.Val) {
							return fmt.Errorf("rank %d: countMul %v:%v, want %v:%v", c.Rank(), got.Idx, got.Val, want.Idx, want.Val)
						}
						if gotM != wantM {
							return fmt.Errorf("rank %d: meter %+v, want %+v", c.Rank(), gotM, wantM)
						}
						return nil
					})
					if err != nil {
						t.Fatalf("%dx%d trial %d t%d overlap=%v: %v", pr, pc, trial, threads, overlap, err)
					}
				}
			}
		}
	}
}
