package core

// Overlap on/off equivalence: the split-phase schedules (overlapped SpMV
// expand/fold, progressive dvec exchanges, the pipelined frontier count)
// must be invisible to the algorithm — bit-identical mate vectors and
// identical per-rank communication meters whether compute/communication
// overlap is enabled or forced off (Config.DisableOverlap). Any divergence
// means an overlapped consumer depended on arrival order or a request
// metered differently from its blocking counterpart.

import (
	"fmt"
	"math/rand"
	"testing"

	"mcmdist/internal/matching"
	"mcmdist/internal/rmat"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

// solveOverlapBothWays runs cfg with overlap on and off and asserts
// bit-identical matchings, oracle agreement, and identical per-rank meters.
func solveOverlapBothWays(t *testing.T, name string, a *spmat.CSC, cfg Config) {
	t.Helper()
	want := matching.HopcroftKarp(a, nil).Cardinality()
	on := mustSolve(t, a, cfg)
	cfgOff := cfg
	cfgOff.DisableOverlap = true
	off := mustSolve(t, a, cfgOff)
	if on.Stats.Cardinality != want {
		t.Fatalf("%s: cardinality %d, oracle %d", name, on.Stats.Cardinality, want)
	}
	for i := range on.Matching.MateR {
		if on.Matching.MateR[i] != off.Matching.MateR[i] {
			t.Fatalf("%s: MateR[%d] overlapped %d, blocking %d",
				name, i, on.Matching.MateR[i], off.Matching.MateR[i])
		}
	}
	for j := range on.Matching.MateC {
		if on.Matching.MateC[j] != off.Matching.MateC[j] {
			t.Fatalf("%s: MateC[%d] overlapped %d, blocking %d",
				name, j, on.Matching.MateC[j], off.Matching.MateC[j])
		}
	}
	for r := range on.PerRank {
		if on.PerRank[r] != off.PerRank[r] {
			t.Fatalf("%s rank %d: overlapped meter %+v, blocking %+v",
				name, r, on.PerRank[r], off.PerRank[r])
		}
	}
}

func TestOverlapOnOffEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 4; trial++ {
		nr, nc := 10+rng.Intn(40), 10+rng.Intn(40)
		a := randomBipartite(rng, nr, nc, rng.Intn(4*(nr+nc))+nr)
		for _, procs := range []int{1, 4, 9} {
			for _, init := range []Init{InitNone, InitGreedy} {
				name := fmt.Sprintf("trial %d p=%d init=%v", trial, procs, init)
				solveOverlapBothWays(t, name, a, Config{Procs: procs, Init: init})
			}
		}
	}
}

func TestOverlapOnOffEquivalenceVariants(t *testing.T) {
	// The schedules that diverge most from their blocking forms: every
	// initializer, the randomized semirings, tree grafting (its own
	// pipelined frontier count), direction optimization (MulPull's dual
	// concurrent gathers), permutation, and rectangular grids where the
	// row and column communicators have different sizes.
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
		{"graft-permuted", Config{Procs: 4, Init: InitDynMinDegree, Engine: EngineBFSGraft, Permute: true, Seed: 6}},
		{"dir-opt", Config{Procs: 4, Init: InitGreedy, Direction: DirectionAuto}},
		{"dir-opt-ks", Config{Procs: 4, Init: InitKarpSipser, Direction: DirectionAuto, Permute: true, Seed: 6}},
		{"grid-2x3", Config{GridRows: 2, GridCols: 3, Init: InitDynMinDegree, Permute: true, Seed: 6}},
		{"grid-1x4", Config{GridRows: 1, GridCols: 4, Init: InitGreedy}},
		{"grid-3x2", Config{GridRows: 3, GridCols: 2, Init: InitGreedy, Engine: EngineBFSGraft}},
	}
	for _, g := range graphs {
		for _, c := range configs {
			solveOverlapBothWays(t, g.name+"/"+c.name, g.a, c.cfg)
		}
	}
}
