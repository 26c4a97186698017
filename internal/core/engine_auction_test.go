package core_test

import (
	"math/rand"
	"testing"

	"mcmdist/internal/core"
	"mcmdist/internal/mpi"
	"mcmdist/internal/rmat"
	"mcmdist/internal/spmat"
)

func randomBipartite(rng *rand.Rand, nr, nc, m int) *spmat.CSC {
	c := spmat.NewCOO(nr, nc)
	for k := 0; k < m; k++ {
		c.Add(rng.Intn(nr), rng.Intn(nc))
	}
	return c.ToCSC()
}

// TestAuctionMaximumAcrossInstances drives the auction engine over a zoo of
// instances — RMAT skew, Erdős–Rényi, rectangular shapes both ways, graphs
// with isolated columns (the no-neighbor price-out path), a perfect-matching
// diagonal, and an empty graph — at 1 and 4 ranks, with and without a
// maximal initializer warm start, and requires a maximum matching each time.
func TestAuctionMaximumAcrossInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	diag := spmat.NewCOO(16, 16)
	for i := 0; i < 16; i++ {
		diag.Add(i, i)
	}
	sparseCols := spmat.NewCOO(12, 20) // 8 columns have no edges at all
	for j := 0; j < 12; j++ {
		sparseCols.Add(rng.Intn(12), j)
	}
	instances := map[string]*spmat.CSC{
		"rmat":     rmat.MustGenerate(rmat.G500, 6, 8, 4),
		"er":       rmat.MustGenerate(rmat.ER, 6, 4, 8),
		"wide":     randomBipartite(rng, 15, 60, 150),
		"tall":     randomBipartite(rng, 60, 15, 150),
		"isolated": sparseCols.ToCSC(),
		"diagonal": diag.ToCSC(),
		"empty":    spmat.NewCOO(10, 10).ToCSC(),
	}
	for name, a := range instances {
		for _, procs := range []int{1, 4} {
			for _, init := range []core.Init{core.InitNone, core.InitDynMinDegree} {
				cfg := core.Config{Engine: core.EngineAuction, Procs: procs, Init: init, Seed: 9}
				res, err := core.Solve(a, cfg)
				if err != nil {
					t.Fatalf("%s p=%d init=%v: %v", name, procs, init, err)
				}
				mustMaximum(t, a, res.Matching, name)
				if res.Stats.Engine != core.EngineAuction {
					t.Fatalf("%s: Stats.Engine = %q", name, res.Stats.Engine)
				}
			}
		}
	}
}

// TestAuctionDeterministicAcrossThreads pins the serial-scan design: the
// auction's trajectory (not just its result) must be independent of the
// thread count, since the bidding scans never split across the pool.
func TestAuctionDeterministicAcrossThreads(t *testing.T) {
	a := rmat.MustGenerate(rmat.G500, 7, 4, 17)
	base, err := core.Solve(a, core.Config{Engine: core.EngineAuction, Procs: 4, Threads: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for threads := 2; threads <= 4; threads++ {
		res, err := core.Solve(a, core.Config{Engine: core.EngineAuction, Procs: 4, Threads: threads, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Iterations != base.Stats.Iterations ||
			res.Stats.Cardinality != base.Stats.Cardinality {
			t.Fatalf("threads=%d: %d rounds / card %d, threads=1: %d / %d",
				threads, res.Stats.Iterations, res.Stats.Cardinality,
				base.Stats.Iterations, base.Stats.Cardinality)
		}
	}
}

// TestAuctionRecoverable exercises checkpoint/restart through the auction's
// round boundaries: a mid-solve crash must resume from a round checkpoint
// (engine id intact) and still finish maximum.
func TestAuctionRecoverable(t *testing.T) {
	a := rmat.MustGenerate(rmat.G500, 6, 8, 6)
	var engines []string
	cfg := core.Config{
		Engine: core.EngineAuction, Procs: 4, Init: core.InitNone, Seed: 4,
		CheckpointEvery: 2,
		OnCheckpoint:    func(ck *core.Checkpoint) { engines = append(engines, ck.Engine) },
		Fault:           &mpi.FaultPlan{CrashRank: 2, CrashAtCollective: 40},
	}
	res, rec, err := core.SolveRecoverable(a, cfg, core.RecoveryPolicy{})
	if err != nil {
		t.Fatalf("recoverable auction: %v", err)
	}
	if rec.Attempts < 2 {
		t.Fatalf("fault never fired: %+v", rec)
	}
	if rec.ResumedPhase == 0 {
		t.Fatalf("restarted from scratch, want a round checkpoint: %+v", rec)
	}
	mustMaximum(t, a, res.Matching, "recovered auction")
	for _, e := range engines {
		if e != core.EngineAuction {
			t.Fatalf("checkpoint carries engine %q", e)
		}
	}
}

// TestAuctionStatsShape pins the observability mapping: one Stats.Iteration
// and one Stats.Phase per bidding round, no augmenting-path accounting.
func TestAuctionStatsShape(t *testing.T) {
	a := rmat.MustGenerate(rmat.ER, 6, 4, 2)
	res, err := core.Solve(a, core.Config{Engine: core.EngineAuction, Procs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations == 0 || res.Stats.Iterations != res.Stats.Phases {
		t.Fatalf("rounds: Iterations=%d Phases=%d, want equal and nonzero",
			res.Stats.Iterations, res.Stats.Phases)
	}
	if res.Stats.AugmentedPaths != 0 {
		t.Fatalf("auction reported %d augmenting paths", res.Stats.AugmentedPaths)
	}
}
