package core_test

// One-shot solves borrow their per-rank runtime contexts from the process
// and give them back when their world ends, so each solve here runs on
// contexts that earlier solves of other graphs, grids, thread counts,
// engines and transports warmed. Every result must equal the same solve on
// pass-through (rt.NewDisabled) contexts, and no later solve may change an
// earlier result. One world in the sequence fails inside the RMA
// augmentation over loopback TCP: its contexts must not come back, and the
// solves after it must still be exact.

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"mcmdist/internal/core"
	"mcmdist/internal/matching"
	"mcmdist/internal/mpi"
	"mcmdist/internal/mpi/tcpnet"
	"mcmdist/internal/rmat"
	"mcmdist/internal/rt"
	"mcmdist/internal/spmat"
)

// oneShot solves a on a fresh world of cfg.Procs ranks — in-process, or one
// loopback TCP endpoint per rank — with no contexts passed, and returns
// each endpoint's matching.
func oneShot(a *spmat.CSC, cfg core.Config, tcp bool) ([]*matching.Matching, error) {
	if !tcp {
		res, err := core.SolveOn(nil, a, cfg)
		if err != nil {
			return nil, err
		}
		return []*matching.Matching{res.Matching}, nil
	}
	eps, err := tcpnet.Loopback(cfg.Procs)
	if err != nil {
		return nil, err
	}
	ms := make([]*matching.Matching, len(eps))
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := core.SolveOn(ep, a, cfg)
			if err == nil {
				ms[i] = res.Matching
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	mpi.CloseAll(eps)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// disabledSolve is the reference: the same solve in-process on contexts
// that pool nothing.
func disabledSolve(t *testing.T, a *spmat.CSC, cfg core.Config) *matching.Matching {
	t.Helper()
	side := map[int]int{1: 1, 4: 2, 9: 3}[cfg.Procs]
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	ctxs := make([]*rt.Ctx, cfg.Procs)
	for r := range ctxs {
		ctxs[r] = rt.NewDisabled(nil)
		defer ctxs[r].Close()
	}
	blocks := spmat.DistributeRanks(a, side, side, nil)
	res, err := core.SolveBlocks(nil, side, side, a.NRows, a.NCols, blocks, cfg, ctxs, (*core.Solver).Solve)
	if err != nil {
		t.Fatal(err)
	}
	return res.Matching
}

func TestPooledContextsAcrossGraphsAndCrash(t *testing.T) {
	graphs := []*spmat.CSC{
		rmat.MustGenerate(rmat.G500, 9, 8, 41),
		rmat.MustGenerate(rmat.ER, 7, 3, 42),
		rmat.MustGenerate(rmat.SSCA, 8, 6, 43),
	}
	type step struct {
		graph, procs, threads int
		engine                string
		tcp, crash            bool
	}
	steps := []step{
		{graph: 0, procs: 4, threads: 1, engine: core.EngineBFS},
		{graph: 1, procs: 9, threads: 2, engine: core.EngineBFSSingleSource},
		{graph: 2, procs: 1, threads: 1, engine: core.EngineBFSSingleSource},
		{graph: 0, procs: 4, threads: 2, engine: core.EngineBFSSingleSource, tcp: true},
		{graph: 1, procs: 4, threads: 1, engine: core.EngineBFS, tcp: true, crash: true},
		{graph: 2, procs: 9, threads: 1, engine: core.EngineBFS},
		{graph: 1, procs: 4, threads: 2, engine: core.EngineBFSSingleSource, tcp: true},
		{graph: 0, procs: 1, threads: 2, engine: core.EngineBFS},
		{graph: 2, procs: 4, threads: 1, engine: core.EngineBFSSingleSource, tcp: true},
		{graph: 0, procs: 9, threads: 1, engine: core.EngineBFSSingleSource},
	}
	type kept struct {
		name         string
		ms           []*matching.Matching
		mateR, mateC []int64
	}
	var results []kept
	for i, st := range steps {
		a := graphs[st.graph]
		// Without an initializer the first frontier is every column, so
		// the auto direction pulls and builds the row-major twin.
		cfg := core.Config{Procs: st.procs, Threads: st.threads, Engine: st.engine,
			Init: []core.Init{core.InitNone, core.InitDynMinDegree}[i%2], Direction: core.DirectionAuto}
		name := fmt.Sprintf("step %d: graph %d p%d t%d %s tcp=%v", i, st.graph, st.procs, st.threads, st.engine, st.tcp)
		if st.crash {
			// Fail inside the path-parallel augmentation, whose RMA windows
			// are over held vectors.
			crashed := cfg
			crashed.Augment = core.AugmentPathParallel
			crashed.Fault = &mpi.FaultPlan{RMAFailRank: 1, RMAFailAt: 5}
			if _, err := oneShot(a, crashed, st.tcp); err == nil {
				t.Fatalf("%s: the injected RMA failure did not fail the world", name)
			}
		}
		ms, err := oneShot(a, cfg, st.tcp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := disabledSolve(t, a, cfg)
		if want.Cardinality() != matching.HopcroftKarp(a, nil).Cardinality() {
			t.Fatalf("%s: the reference is not maximum", name)
		}
		for e, m := range ms {
			if !slices.Equal(m.MateR, want.MateR) || !slices.Equal(m.MateC, want.MateC) {
				t.Fatalf("%s endpoint %d: mates differ from the solve on disabled contexts", name, e)
			}
		}
		results = append(results, kept{name: name, ms: ms, mateR: slices.Clone(want.MateR), mateC: slices.Clone(want.MateC)})
	}
	for _, r := range results {
		for e, m := range r.ms {
			if !slices.Equal(m.MateR, r.mateR) || !slices.Equal(m.MateC, r.mateC) {
				t.Fatalf("%s endpoint %d: the result changed after later solves reused the contexts", r.name, e)
			}
		}
	}
}
