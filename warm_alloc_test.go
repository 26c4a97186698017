package mcmdist

// Allocation budget of a warm session solve. A DistributedGraph's per-rank
// contexts keep the solve's vectors between solves (the arena for what one
// primitive call borrows, the solve-lifetime store for mates, parents,
// paths and frontiers), so a warm solve allocates its gathered result and,
// beyond it, only what every collective and every world allocates afresh.

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
