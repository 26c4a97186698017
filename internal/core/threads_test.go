package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mcmdist/internal/matching"
	"mcmdist/internal/rmat"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

// matesEqual reports whether two mate slices are bit-identical.
func matesEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSolveThreadInvariant is the thread-count oracle sweep: the worker
// pools regroup but never reorder the serial combine sequences, so every
// solve must produce the exact matching — not just the cardinality — of the
// single-threaded run, for any thread count. The sweep crosses generators,
// grid shapes (including rectangular), initializers, and both MCM variants.
func TestSolveThreadInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		name string
		a    *spmat.CSC
	}{
		{"square-sparse", randomBipartite(rng, 60, 60, 240)},
		{"rect-wide", randomBipartite(rng, 48, 70, 300)},
		{"rect-tall", randomBipartite(rng, 75, 50, 280)},
		{"rmat-g500", rmat.MustGenerate(rmat.G500, 7, 8, 33)},
	}
	shapes := []struct{ procs, gr, gc int }{
		{1, 0, 0}, {4, 0, 0}, {0, 2, 3}, {0, 3, 2},
	}

	for _, c := range cases {
		oracle := matching.HopcroftKarp(c.a, nil).Cardinality()
		for _, sh := range shapes {
			for _, init := range []Init{InitGreedy, InitDynMinDegree} {
				for _, engine := range []string{EngineBFS, EngineBFSSingleSource} {
					cfg := Config{
						Procs: sh.procs, GridRows: sh.gr, GridCols: sh.gc,
						Init: init, AddOp: semiring.MinParent,
						Engine: engine, Permute: true, Seed: 9,
					}
					name := fmt.Sprintf("%s/p%d-%dx%d/%s/%s", c.name, sh.procs, sh.gr, sh.gc, init, engine)
					cfg.Threads = 1
					base := mustSolve(t, c.a, cfg)
					if base.Stats.Cardinality != oracle {
						t.Fatalf("%s: cardinality %d, oracle %d", name, base.Stats.Cardinality, oracle)
					}
					for _, threads := range []int{2, 4, 8} {
						cfg.Threads = threads
						res := mustSolve(t, c.a, cfg)
						if res.Stats.Cardinality != base.Stats.Cardinality {
							t.Fatalf("%s: t=%d cardinality %d, t=1 gave %d",
								name, threads, res.Stats.Cardinality, base.Stats.Cardinality)
						}
						if !matesEqual(res.Matching.MateR, base.Matching.MateR) ||
							!matesEqual(res.Matching.MateC, base.Matching.MateC) {
							t.Fatalf("%s: t=%d matching differs from t=1", name, threads)
						}
					}
				}
			}
		}
	}
}

// TestSolveThreadInvariantAddOps covers the remaining semiring add ops on
// one configuration: their tie-breaks are deterministic (hash-based for the
// randomized ops), so thread count must not change the matching.
func TestSolveThreadInvariantAddOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomBipartite(rng, 64, 64, 300)
	for _, op := range []semiring.AddOp{semiring.RandParent, semiring.RandRoot} {
		cfg := Config{Procs: 4, Init: InitDynMinDegree, AddOp: op, Permute: true, Seed: 3, Threads: 1}
		base := mustSolve(t, a, cfg)
		for _, threads := range []int{2, 8} {
			cfg.Threads = threads
			res := mustSolve(t, a, cfg)
			if res.Stats.Cardinality != base.Stats.Cardinality ||
				!matesEqual(res.Matching.MateR, base.Matching.MateR) ||
				!matesEqual(res.Matching.MateC, base.Matching.MateC) {
				t.Fatalf("op %v t=%d: matching differs from t=1", op, threads)
			}
		}
	}
}
