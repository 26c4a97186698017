package core

// Arrival-order independence: the split-phase consumers (the progressive
// SpMV expand and fold, the drained dvec exchanges, the pipelined frontier
// count) see peers' contributions in whatever order they land. A straggler
// on one rank reorders those arrivals — its pieces come last everywhere —
// so each configuration is solved once clean and once with a seeded
// straggler on rank 0 and on the last rank. Mates must stay bit-identical
// and per-rank meters identical; any divergence means a consumer depended
// on which peer's contribution arrived first.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mcmdist/internal/matching"
	"mcmdist/internal/mpi"
	"mcmdist/internal/rmat"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

// solveUnderStragglers solves cfg clean and under a straggler on the first
// and on the last rank, and asserts bit-identical matchings, oracle
// agreement, and identical per-rank meters.
func solveUnderStragglers(t *testing.T, name string, a *spmat.CSC, cfg Config) {
	t.Helper()
	want := matching.HopcroftKarp(a, nil).Cardinality()
	clean := mustSolve(t, a, cfg)
	if clean.Stats.Cardinality != want {
		t.Fatalf("%s: cardinality %d, oracle %d", name, clean.Stats.Cardinality, want)
	}
	for _, rank := range []int{0, clean.Procs - 1} {
		slow := cfg
		slow.Fault = &mpi.FaultPlan{
			Seed:            int64(7 + rank),
			StragglerRank:   rank,
			StragglerDelay:  time.Microsecond,
			StragglerJitter: 50 * time.Microsecond,
		}
		got := mustSolve(t, a, slow)
		for i := range clean.Matching.MateR {
			if clean.Matching.MateR[i] != got.Matching.MateR[i] {
				t.Fatalf("%s straggler %d: MateR[%d] = %d, clean %d",
					name, rank, i, got.Matching.MateR[i], clean.Matching.MateR[i])
			}
		}
		for j := range clean.Matching.MateC {
			if clean.Matching.MateC[j] != got.Matching.MateC[j] {
				t.Fatalf("%s straggler %d: MateC[%d] = %d, clean %d",
					name, rank, j, got.Matching.MateC[j], clean.Matching.MateC[j])
			}
		}
		for r := range clean.PerRank {
			if clean.PerRank[r] != got.PerRank[r] {
				t.Fatalf("%s straggler %d, rank %d: meter %+v, clean %+v",
					name, rank, r, got.PerRank[r], clean.PerRank[r])
			}
		}
	}
}

func TestStragglerArrivalOrderRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 4; trial++ {
		nr, nc := 10+rng.Intn(40), 10+rng.Intn(40)
		a := randomBipartite(rng, nr, nc, rng.Intn(4*(nr+nc))+nr)
		for _, procs := range []int{1, 4, 9} {
			for _, init := range []Init{InitNone, InitGreedy} {
				name := fmt.Sprintf("trial %d p=%d init=%v", trial, procs, init)
				solveUnderStragglers(t, name, a, Config{Procs: procs, Init: init})
			}
		}
	}
}

func TestStragglerArrivalOrderVariants(t *testing.T) {
	// The schedules with the most arrival-order freedom: every initializer,
	// the randomized semirings, the single-source engine (its own source
	// allreduce), direction optimization (MulPull's two concurrent gathers),
	// permutation, and rectangular grids where the row and column
	// communicators have different sizes.
	rng := rand.New(rand.NewSource(18))
	graphs := []struct {
		name string
		a    *spmat.CSC
	}{
		{"random", randomBipartite(rng, 60, 60, 260)},
		{"g500", rmat.MustGenerate(rmat.G500, 7, 4, 33)},
		{"er", rmat.MustGenerate(rmat.ER, 7, 4, 33)},
	}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"karp-sipser", Config{Procs: 4, Init: InitKarpSipser}},
		{"dyn-mindegree", Config{Procs: 4, Init: InitDynMinDegree}},
		{"rand-root", Config{Procs: 4, AddOp: semiring.RandRoot}},
		{"rand-parent", Config{Procs: 4, AddOp: semiring.RandParent}},
		{"ss-permuted", Config{Procs: 4, Init: InitDynMinDegree, Engine: EngineBFSSingleSource, Permute: true, Seed: 6}},
		{"dir-opt", Config{Procs: 4, Init: InitGreedy, Direction: DirectionAuto}},
		{"dir-opt-ks", Config{Procs: 4, Init: InitKarpSipser, Direction: DirectionAuto, Permute: true, Seed: 6}},
		{"grid-2x3", Config{GridRows: 2, GridCols: 3, Init: InitDynMinDegree, Permute: true, Seed: 6}},
		{"grid-1x4", Config{GridRows: 1, GridCols: 4, Init: InitGreedy}},
		{"grid-3x2", Config{GridRows: 3, GridCols: 2, Init: InitGreedy, Engine: EngineBFSSingleSource}},
	}
	for _, g := range graphs {
		for _, c := range configs {
			solveUnderStragglers(t, g.name+"/"+c.name, g.a, c.cfg)
		}
	}
}
