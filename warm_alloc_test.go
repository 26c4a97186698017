package mcmdist

// Allocation budgets of warm session solves. A DistributedGraph's per-rank
// contexts keep the solve's vectors between solves (the arena for what one
// primitive call borrows, the solve-lifetime store for mates, parents,
// paths and frontiers), so a warm solve allocates its gathered result and,
// beyond it, only what every collective and every world allocates afresh.
// The store takes its vectors back at each Bind, also from an attempt that
// crashed, so the retry of a recoverable solve runs warm as well.

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

// TestWarmSessionSolveAllocations counts the bytes allocated by the third
// MaximumMatching on one DistributedGraph of RMAT G500 scale 12 on 2x2
// ranks. The budget is the gathered mate vectors plus warmRest, the rest
// as measured on the solve-lifetime store (about 275 KB on a 2-vCPU host:
// mostly the collectives' requests, callbacks and received rows, and each
// solve's fresh world), with under 10% headroom. Before the store, the
// same solve allocated about 771 KB.
func TestWarmSessionSolveAllocations(t *testing.T) {
	const warmRest = 300_000
	g := mustRMAT(t, G500, 12, 8, 5)
	dg, err := Distribute(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer dg.Close()
	opts := Options{Engine: "bfs", Init: DynamicMindegreeInit, Threads: 1}
	for i := 0; i < 2; i++ {
		if _, _, err := dg.MaximumMatching(opts); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, _, err := dg.MaximumMatching(opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	result := uint64(8 * (len(m.MateR) + len(m.MateC)))
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("third solve: %d bytes (%d of them the result), %d mallocs", got, result, after.Mallocs-before.Mallocs)
	if got > result+warmRest {
		t.Errorf("third solve allocated %d bytes, want at most %d (result) + %d", got, result, warmRest)
	}
}

// TestWarmRecoverableAllocations counts the bytes allocated by the third
// SolveRecoverable on one DistributedGraph of the road_usa stand-in at
// scale 11 on 2x2 ranks, with a checkpoint after every phase and one
// injected crash (the shape of BenchmarkSolveRecoverableAllocs), so each
// solve runs two attempts and the second resumes from a checkpoint. The
// budget is the gathered mate vectors plus warmRecoverableRest: about
// 850-935 KB was measured on a 2-vCPU host, up to 980 KB under -race, with
// under 10% headroom over the highest. While an attempt that crashed kept
// its vectors from the store, the same solve allocated 1.17-1.26 MB.
func TestWarmRecoverableAllocations(t *testing.T) {
	const warmRecoverableRest = 1_040_000
	g, err := TableII("road_usa", 11)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := Distribute(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer dg.Close()
	opts := Options{Threads: 1, Engine: "bfs", Init: DynamicMindegreeInit}
	pol := RecoveryPolicy{
		CheckpointEvery: 1,
		Fault:           &FaultSpec{CrashRank: 1, CrashAtCollective: 300},
	}
	for i := 0; i < 2; i++ {
		if _, _, _, err := dg.SolveRecoverable(opts, pol); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, _, rec, err := dg.SolveRecoverable(opts, pol)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Attempts != 2 {
		t.Fatalf("recovery ran %d attempts, want 2", rec.Attempts)
	}
	result := uint64(8 * (len(m.MateR) + len(m.MateC)))
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("third recoverable solve: %d bytes (%d of them the result), %d mallocs", got, result, after.Mallocs-before.Mallocs)
	if got > result+warmRecoverableRest {
		t.Errorf("third recoverable solve allocated %d bytes, want at most %d (result) + %d", got, result, warmRecoverableRest)
	}
}

// TestWarmOneShotAllocations counts the bytes allocated by the second
// one-shot MaximumMatchingOn in a process, on a 4-endpoint loopback TCP
// world of RMAT G500 scale 14 with the auto engine (bfs) and direction on
// a compressed wire (the shape of the repo benchmark's rmat-tcp-auto),
// from the world's bootstrap to the last endpoint's Close. One-shot solves
// borrow their rank contexts, each world's payload free list and each
// peer's wire buffers from the process, so the second solve runs on what
// the first one grew. Which rank gets which rank's context is up to
// sync.Pool, so what a solve regrows varies: 2.9-6.6 MB beyond the four
// results (median 4.6 MB) was measured in 30 fresh processes on a 2-vCPU
// host. The budget is 15% over the 5.6 MB highest of an earlier
// measurement, so the two highest of those 30 draws exceed it. When
// one-shot solves built every rank's state afresh, the same solve
// allocated 12.9 MB. Under -race sync.Pool drops a quarter of what is put
// back, so a solve there may run nearly as cold as the first one in the
// process (13.5 MB): 4.0-10.0 MB was measured over 44 runs (5.2-9.4 MB
// over 12 with auto running bfs), and the race budget only has to stay
// below the 14.2 MB the same solve allocated when nothing was pooled.
func TestWarmOneShotAllocations(t *testing.T) {
	warmOneShotRest := uint64(6_400_000)
	if raceBuild {
		warmOneShotRest = 13_000_000
	}
	g := mustRMAT(t, G500, 14, 8, 5)
	opts := Options{Procs: 4, Threads: 1, Engine: "auto", Direction: "auto", Compress: true, Init: DynamicMindegreeInit}
	solve := func() (*Matching, error) {
		trs, err := LoopbackTCP(opts.Procs)
		if err != nil {
			return nil, err
		}
		ms := make([]*Matching, len(trs))
		errs := make([]error, 2*len(trs))
		var wg sync.WaitGroup
		for i, tr := range trs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ms[i], _, errs[i] = MaximumMatchingOn(tr, g, opts)
			}()
		}
		wg.Wait()
		for i, tr := range trs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[len(trs)+i] = tr.Close()
			}()
		}
		wg.Wait()
		return ms[0], errors.Join(errs...)
	}
	if _, err := solve(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := solve()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	result := uint64(4 * 8 * (len(m.MateR) + len(m.MateC)))
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("second one-shot solve: %d bytes (%d of them the four results), %d mallocs", got, result, after.Mallocs-before.Mallocs)
	if got > result+warmOneShotRest {
		t.Errorf("second one-shot solve allocated %d bytes, want at most %d (results) + %d", got, result, warmOneShotRest)
	}
}
