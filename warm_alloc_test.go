package mcmdist

// Allocation budgets of warm session solves. A DistributedGraph's per-rank
// contexts keep the solve's vectors between solves (the arena for what one
// primitive call borrows, the solve-lifetime store for mates, parents,
// paths and frontiers), so a warm solve allocates its gathered result and,
// beyond it, only what every collective and every world allocates afresh.
// The store takes its vectors back at each Bind, also from an attempt that
// crashed, so the retry of a recoverable solve runs warm as well.

import (
	"runtime"
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
