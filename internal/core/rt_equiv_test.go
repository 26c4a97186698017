package core

// Pooling on/off equivalence: MCM-DIST must compute the same matching
// cardinality (and, the algorithm being deterministic, the same per-rank
// communication meters) whether the runtime context's arena is enabled or
// in pass-through mode (rt.NewDisabled). Any divergence means a pooled
// buffer leaked state between borrows. The sweep mirrors the generator,
// seed, and grid-shape combinations of the oracle tests in core_test.go.

import (
	"fmt"
	"math/rand"
	"testing"

	"mcmdist/internal/matching"
	"mcmdist/internal/mpi"
	"mcmdist/internal/rmat"
	"mcmdist/internal/rt"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

// solveUnpooled is Solve on per-rank contexts whose arenas are
// pass-through, the unpooled reference.
func solveUnpooled(t *testing.T, a *spmat.CSC, cfg Config) *Result {
	t.Helper()
	cfg = cfg.withDefaults()
	pr, pc, err := cfg.gridShape()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Procs = pr * pc
	tr := mpi.NewInproc(cfg.Procs)
	d, err := distribute(tr, a, cfg, pr, pc)
	if err != nil {
		t.Fatal(err)
	}
	ctxs := make([]*rt.Ctx, cfg.Procs)
	for r := range ctxs {
		ctxs[r] = rt.NewDisabled(nil) // bound to the rank's comm at run time
		defer ctxs[r].Close()
	}
	res, err := SolveBlocks(tr, pr, pc, d.work.NRows, d.work.NCols, d.blocks, cfg, ctxs, (*Solver).Solve)
	if err != nil {
		t.Fatal(err)
	}
	res.Matching = d.unpermute(res.Matching)
	if err := res.Matching.Validate(a); err != nil {
		t.Fatalf("cfg %+v: %v", cfg, err)
	}
	return res
}

// solveBothWays runs cfg pooled and unpooled and asserts identical
// cardinality, oracle agreement, and identical per-rank meters.
func solveBothWays(t *testing.T, name string, a *spmat.CSC, cfg Config) {
	t.Helper()
	want := matching.HopcroftKarp(a, nil).Cardinality()
	on := mustSolve(t, a, cfg)
	off := solveUnpooled(t, a, cfg)
	if on.Stats.Cardinality != off.Stats.Cardinality {
		t.Fatalf("%s: pooled cardinality %d, unpooled %d",
			name, on.Stats.Cardinality, off.Stats.Cardinality)
	}
	if on.Stats.Cardinality != want {
		t.Fatalf("%s: cardinality %d, oracle %d", name, on.Stats.Cardinality, want)
	}
	for r := range on.PerRank {
		if on.PerRank[r] != off.PerRank[r] {
			t.Fatalf("%s rank %d: pooled meter %+v, unpooled %+v",
				name, r, on.PerRank[r], off.PerRank[r])
		}
	}
}

func TestPoolingOnOffEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 4; trial++ {
		nr, nc := 10+rng.Intn(40), 10+rng.Intn(40)
		a := randomBipartite(rng, nr, nc, rng.Intn(4*(nr+nc))+nr)
		for _, procs := range []int{1, 4, 9} {
			for _, init := range []Init{InitNone, InitGreedy} {
				name := fmt.Sprintf("trial %d p=%d init=%v", trial, procs, init)
				solveBothWays(t, name, a, Config{Procs: procs, Init: init})
			}
		}
	}
}

func TestPoolingOnOffEquivalenceVariants(t *testing.T) {
	// The harder configurations: every initializer, the randomized
	// semirings, the single-source engine, direction optimization,
	// permutation, and rectangular grids — each compared pooled vs unpooled
	// on random and RMAT generators.
	rng := rand.New(rand.NewSource(10))
	graphs := []struct {
		name string
		a    *spmat.CSC
	}{
		{"random", randomBipartite(rng, 60, 60, 260)},
		{"g500", rmat.MustGenerate(rmat.G500, 7, 4, 21)},
		{"er", rmat.MustGenerate(rmat.ER, 7, 4, 21)},
	}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"karp-sipser", Config{Procs: 4, Init: InitKarpSipser}},
		{"dyn-mindegree", Config{Procs: 4, Init: InitDynMinDegree}},
		{"rand-root", Config{Procs: 4, AddOp: semiring.RandRoot}},
		{"rand-parent", Config{Procs: 4, AddOp: semiring.RandParent}},
		{"ss-permuted", Config{Procs: 4, Init: InitDynMinDegree, Engine: EngineBFSSingleSource, Permute: true, Seed: 4}},
		{"dir-opt", Config{Procs: 4, Init: InitGreedy, Direction: DirectionAuto}},
		{"grid-2x3", Config{GridRows: 2, GridCols: 3, Init: InitDynMinDegree, Permute: true, Seed: 4}},
		{"grid-1x4", Config{GridRows: 1, GridCols: 4, Init: InitGreedy}},
	}
	for _, g := range graphs {
		for _, c := range configs {
			solveBothWays(t, g.name+"/"+c.name, g.a, c.cfg)
		}
	}
}
