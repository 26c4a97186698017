package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mcmdist/internal/dvec"
	"mcmdist/internal/gen"
	"mcmdist/internal/rmat"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

// gatherInt is s as a global dense slice on every rank, with semiring.None
// where s holds no entry. Collective.
func gatherInt(s *dvec.SparseInt) []int64 {
	d := dvec.HoldDense(s.L, semiring.None)
	d.Scatter(s)
	return d.Gather(true)
}

// serialResidualDegrees is the recompute-from-scratch reference: for every
// unmatched column, the number of its unmatched row neighbors, 0 where the
// column is matched.
func serialResidualDegrees(a *spmat.CSC, mateR, mateC []int64) []int64 {
	deg := make([]int64, a.NCols)
	for j := range a.NCols {
		if mateC[j] != semiring.None {
			continue
		}
		for _, i := range a.Col(j) {
			if mateR[i] == semiring.None {
				deg[j]++
			}
		}
	}
	return deg
}

// unmatchedMates returns a mate vector of n unmatched vertices.
func unmatchedMates(n int) []int64 {
	m := make([]int64, n)
	for i := range m {
		m[i] = semiring.None
	}
	return m
}

// randomPartialMatching matches a random subset of a's edges greedily.
func randomPartialMatching(rng *rand.Rand, a *spmat.CSC, keep float64) (mateR, mateC []int64) {
	mateR = unmatchedMates(a.NRows)
	mateC = unmatchedMates(a.NCols)
	for _, j := range rng.Perm(a.NCols) {
		for _, i := range a.Col(j) {
			if mateR[i] == semiring.None && rng.Float64() < keep {
				mateR[i], mateC[j] = int64(j), int64(i)
				break
			}
		}
	}
	return mateR, mateC
}

// localPairs lists the matched entries of a gathered mate vector that fall
// in l's local range, as the (vertex, mate) pairs a greedy round returns.
func localPairs(l dvec.Layout, mate []int64, keep func(g int) bool) *dvec.SparseV {
	v := dvec.NewSparseV(l)
	r := l.MyRange()
	for g := r.Lo; g < r.Hi; g++ {
		if mate[g] != semiring.None && keep(g) {
			v.Append(g, semiring.Vertex{Parent: mate[g]})
		}
	}
	return v
}

// checkDegrees compares a gathered residual-degree vector against the
// serial reference: an entry exactly where the reference is positive.
func checkDegrees(got, want []int64) error {
	for j, w := range want {
		switch {
		case w == 0 && got[j] != semiring.None:
			return fmt.Errorf("col %d: got degree %d, want no entry", j, got[j])
		case w > 0 && got[j] != w:
			return fmt.Errorf("col %d: got degree %d, want %d", j, got[j], w)
		}
	}
	return nil
}

// TestResidualDegreesMatchSerial checks the block-local count against the
// serial residual degrees of random partial matchings, on every grid shape
// and thread count. The matched sets are filled in two batches, as two
// rounds would fill them, so every rank also replicates an empty batch.
func TestResidualDegreesMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {3, 3}, {2, 3}, {1, 4}} {
		pr, pc := shape[0], shape[1]
		for trial := range 2 {
			nr, nc := 10+rng.Intn(2000), 10+rng.Intn(3000)
			a := randomBipartite(rng, nr, nc, nr+rng.Intn(6*(nr+nc)))
			mateR, mateC := randomPartialMatching(rng, a, []float64{0, 0.3, 0.9}[rng.Intn(3)])
			want := serialResidualDegrees(a, mateR, mateC)
			blocks := spmat.DistributeRanks(a, pr, pc, nil)
			for threads := 1; threads <= 4; threads++ {
				cfg := Config{Procs: pr * pc, Threads: threads}
				err := RunDistributed(nil, pr, pc, a.NRows, a.NCols, blocks, cfg, nil, func(s *Solver) error {
					m := s.newMatchedSets()
					for _, half := range []int{0, 1} {
						// Split the pairs by their column, so each batch's
						// rows and columns belong to the same pairs.
						keepC := func(j int) bool { return j%2 == half }
						keepR := func(i int) bool { return int(mateR[i])%2 == half }
						s.markMatched(m, localPairs(s.ColL, mateC, keepC), localPairs(s.RowL, mateR, keepR))
					}
					if err := checkDegrees(gatherInt(s.residualColDegrees(m, nil)), want); err != nil {
						return fmt.Errorf("rank %d: %v", s.G.World.Rank(), err)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("%dx%d trial %d t%d: %v", pr, pc, trial, threads, err)
				}
			}
		}
	}
}

// serialDegreeInit is the recompute-every-round oracle of the degree
// initializers: every round recomputes the residual degrees from the mates,
// picks the frontier as the distributed round does, lets every unmatched
// row take its best frontier neighbor (the smallest column, or under
// mindegree the smallest (degree, column) key), and lets every column keep
// its smallest proposing row. It returns the degrees each round saw and the
// final mates.
func serialDegreeInit(a *spmat.CSC, init Init) (rounds [][]int64, mateR, mateC []int64) {
	at := a.Transpose()
	mateR = unmatchedMates(a.NRows)
	mateC = unmatchedMates(a.NCols)
	for {
		deg := serialResidualDegrees(a, mateR, mateC)
		rounds = append(rounds, deg)
		inFrontier := func(j int) bool { return deg[j] > 0 }
		if init == InitKarpSipser && slices.Contains(deg, 1) {
			inFrontier = func(j int) bool { return deg[j] == 1 }
		}
		key := func(j int) int64 {
			if init == InitKarpSipser {
				return int64(j)
			}
			return deg[j]*int64(a.NCols) + int64(j)
		}
		proposal := unmatchedMates(a.NCols)
		for i := range a.NRows {
			if mateR[i] != semiring.None {
				continue
			}
			best := -1
			for _, j := range at.Col(i) {
				if inFrontier(j) && (best < 0 || key(j) < key(best)) {
					best = j
				}
			}
			if best >= 0 && proposal[best] == semiring.None {
				proposal[best] = int64(i) // rows ascend: the first is the smallest
			}
		}
		matched := 0
		for j, i := range proposal {
			if i != semiring.None {
				mateC[j], mateR[i] = i, int64(j)
				matched++
			}
		}
		if matched == 0 {
			return rounds, mateR, mateC
		}
	}
}

// TestDegreeInitRoundsMatchSerialOracle runs Karp–Sipser and dynamic
// mindegree against the recompute-every-round oracle across generators,
// grid shapes and thread counts: the residual degrees of every round must
// equal the oracle's, and the final mates of MaximalInit must be the
// oracle's exactly.
func TestDegreeInitRoundsMatchSerialOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	cases := []struct {
		name string
		a    *spmat.CSC
	}{
		{"square-sparse", randomBipartite(rng, 300, 300, 900)},
		{"rect-wide", randomBipartite(rng, 120, 700, 1500)},
		{"rect-tall", randomBipartite(rng, 700, 150, 1600)},
		{"rmat-g500", rmat.MustGenerate(rmat.G500, 9, 8, 33)},
		{"rmat-ssca", rmat.MustGenerate(rmat.SSCA, 8, 8, 5)},
	}
	for _, sp := range gen.Suite()[:3] {
		cases = append(cases, struct {
			name string
			a    *spmat.CSC
		}{sp.Name, gen.MustGenerate(sp, 7)})
	}
	shapes := [][2]int{{1, 1}, {2, 2}, {2, 3}, {3, 2}, {1, 4}}
	for _, c := range cases {
		for _, init := range []Init{InitKarpSipser, InitDynMinDegree} {
			rounds, wantR, wantC := serialDegreeInit(c.a, init)
			for _, sh := range shapes {
				blocks := spmat.DistributeRanks(c.a, sh[0], sh[1], nil)
				for threads := 1; threads <= 4; threads++ {
					name := fmt.Sprintf("%s/%v/%dx%d/t%d", c.name, init, sh[0], sh[1], threads)
					cfg := Config{Procs: sh[0] * sh[1], Threads: threads, Init: init}
					var gotR, gotC []int64
					err := RunDistributed(nil, sh[0], sh[1], c.a.NRows, c.a.NCols, blocks, cfg, nil, func(s *Solver) error {
						// The per-round pass: wrap the round's frontier
						// pick to compare each round's degrees.
						pick := s.minDegreeFrontier
						if init == InitKarpSipser {
							pick = s.karpSipserFrontier()
						}
						round := 0
						var roundErr error
						mater := dvec.HoldDense(s.RowL, semiring.None)
						matec := dvec.HoldDense(s.ColL, semiring.None)
						s.degreeInit(mater, matec, func(degU *dvec.SparseInt, dst *dvec.SparseV) (*dvec.SparseV, semiring.AddOp) {
							got := gatherInt(degU)
							if roundErr == nil {
								if round >= len(rounds) {
									roundErr = fmt.Errorf("round %d: the oracle stopped after %d rounds", round, len(rounds))
								} else if err := checkDegrees(got, rounds[round]); err != nil {
									roundErr = fmt.Errorf("round %d: %v", round, err)
								}
							}
							round++
							return pick(degU, dst)
						})
						if roundErr != nil {
							return roundErr
						}
						// The oracle's last round finds no degree left, where
						// the distributed loop stops before picking.
						if round != len(rounds)-1 {
							return fmt.Errorf("%d rounds, oracle %d", round, len(rounds)-1)
						}
						// The production entry point must agree.
						mr, mc := s.MaximalInit()
						fullR, fullC := mr.Gather(true), mc.Gather(true)
						if !slices.Equal(fullR, mater.Gather(true)) || !slices.Equal(fullC, matec.Gather(true)) {
							return fmt.Errorf("MaximalInit differs from the per-round pass")
						}
						if s.G.World.Rank() == 0 {
							gotR, gotC = fullR, fullC
						}
						return nil
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !slices.Equal(gotR, wantR) || !slices.Equal(gotC, wantC) {
						t.Fatalf("%s: mates differ from the serial oracle", name)
					}
				}
			}
		}
	}
}
