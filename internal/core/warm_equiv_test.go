package core_test

// Cross-solve equivalence: a solve on per-rank contexts that earlier solves
// warmed — their arenas, scratch and solve-lifetime stores holding buffers
// of other engines, initializers, thread counts and graph sizes — must
// compute exactly what a solve on fresh contexts computes. Any divergence
// means a held buffer carried state from one solve into the next.

import (
	"fmt"
	"slices"
	"testing"

	"mcmdist/internal/core"
	"mcmdist/internal/matching"
	"mcmdist/internal/rmat"
	"mcmdist/internal/rt"
	"mcmdist/internal/spmat"
)

func TestWarmContextsMatchFreshAcrossSolves(t *testing.T) {
	const pr, pc = 2, 2
	graphs := []*spmat.CSC{
		rmat.MustGenerate(rmat.G500, 8, 4, 31),
		rmat.MustGenerate(rmat.ER, 7, 3, 32),
	}
	blocks := make([][][]*spmat.LocalMatrix, len(graphs))
	for i, a := range graphs {
		blocks[i] = spmat.DistributeRanks(a, pr, pc, nil)
	}
	ctxs := make([]*rt.Ctx, pr*pc)
	for r := range ctxs {
		ctxs[r] = rt.New(nil)
		defer ctxs[r].Close()
	}
	maximum := make([]int, len(graphs))
	for i, a := range graphs {
		maximum[i] = matching.HopcroftKarp(a, nil).Cardinality()
	}
	solve := func(gi int, cfg core.Config, ctxs []*rt.Ctx) *core.Result {
		t.Helper()
		a := graphs[gi]
		res, err := core.SolveBlocks(nil, pr, pc, a.NRows, a.NCols, blocks[gi], cfg, ctxs, (*core.Solver).Solve)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if err := res.Matching.Validate(a); err != nil || res.Matching.Cardinality() != maximum[gi] {
			t.Fatalf("%+v: |M| = %d of %d, %v", cfg, res.Matching.Cardinality(), maximum[gi], err)
		}
		return res
	}

	solves := 0
	for _, engine := range []string{core.EngineBFS, core.EngineBFSSingleSource} {
		for _, init := range []core.Init{core.InitNone, core.InitGreedy, core.InitKarpSipser, core.InitDynMinDegree} {
			for _, threads := range []int{1, 4} {
				for _, dir := range []core.Direction{core.DirectionPush, core.DirectionAuto} {
					// The graph varies fastest, so consecutive solves on the
					// warm contexts change size.
					for gi := range graphs {
						cfg := core.Config{Procs: pr * pc, Engine: engine, Init: init, Threads: threads, Direction: dir}
						name := fmt.Sprintf("graph %d %s/%v/t%d/%v", gi, engine, init, threads, dir)
						warm := solve(gi, cfg, ctxs)
						fresh := solve(gi, cfg, nil)
						solves++
						if !slices.Equal(warm.Matching.MateR, fresh.Matching.MateR) || !slices.Equal(warm.Matching.MateC, fresh.Matching.MateC) {
							t.Fatalf("%s (solve %d on the warm contexts): mates differ from a fresh solve", name, solves)
						}
						if !slices.Equal(warm.PerRank, fresh.PerRank) {
							t.Fatalf("%s (solve %d on the warm contexts): per-rank meters %+v, fresh %+v", name, solves, warm.PerRank, fresh.PerRank)
						}
						if w, f := warm.Stats, fresh.Stats; w.Cardinality != f.Cardinality || w.Phases != f.Phases || w.Iterations != f.Iterations {
							t.Fatalf("%s: warm |M| %d phases %d iterations %d, fresh %d %d %d",
								name, w.Cardinality, w.Phases, w.Iterations, f.Cardinality, f.Phases, f.Iterations)
						}
					}
				}
			}
		}
	}
}
