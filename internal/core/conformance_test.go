package core_test

// The engine conformance suite: every engine in the engine table must
// produce a valid MAXIMUM matching on both transports at every thread count,
// survive the fault plans under checkpoint/restart, and a checkpoint must
// never resume under a different engine or semiring. The fault plans run on
// the in-process backend here; the multi-process half of the recovery loop
// (a supervised loopback-TCP world that restarts killed worker processes) is
// covered by internal/distjob's Supervise tests and scripts/chaos_smoke.sh.

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"mcmdist/internal/core"
	"mcmdist/internal/matching"
	"mcmdist/internal/mpi"
	"mcmdist/internal/mpi/tcpnet"
	"mcmdist/internal/rmat"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
	"mcmdist/internal/verify"
)

func mustMaximum(t *testing.T, a *spmat.CSC, m *matching.Matching, label string) {
	t.Helper()
	if err := verify.Valid(a, m); err != nil {
		t.Fatalf("%s: invalid matching: %v", label, err)
	}
	if err := verify.Maximum(a, m); err != nil {
		t.Fatalf("%s: not maximum: %v", label, err)
	}
}

// solveLoopbackTCP solves a with core.SolveOn on every endpoint of a
// cfg.Procs-rank loopback TCP world concurrently, and returns the endpoints
// (closed) with one result each, in the same order.
func solveLoopbackTCP(t *testing.T, a *spmat.CSC, cfg core.Config) ([]mpi.Transport, []*core.Result) {
	t.Helper()
	eps, err := tcpnet.Loopback(cfg.Procs)
	if err != nil {
		t.Fatalf("building tcp endpoints: %v", err)
	}
	results := make([]*core.Result, len(eps))
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep mpi.Transport) {
			defer wg.Done()
			results[i], errs[i] = core.SolveOn(ep, a, cfg)
		}(i, ep)
	}
	wg.Wait()
	if err := mpi.CloseAll(eps); err != nil {
		t.Errorf("closing endpoints: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tcp solve on endpoint %d: %v", i, err)
		}
	}
	return eps, results
}

// TestEngineConformance sweeps every engine over both transports
// and threads 1..4 on one RMAT instance. The in-process result is the oracle
// for the tcp run of the same configuration, which must match bit-for-bit —
// mate vectors and the per-rank meter ledgers.
func TestEngineConformance(t *testing.T) {
	a := rmat.MustGenerate(rmat.G500, 6, 4, 21)
	for _, name := range core.EngineNames() {
		for threads := 1; threads <= 4; threads++ {
			t.Run(fmt.Sprintf("%s/t%d", name, threads), func(t *testing.T) {
				cfg := core.Config{Engine: name, Procs: 4, Threads: threads, Seed: 5}
				oracle, err := core.Solve(a, cfg)
				if err != nil {
					t.Fatalf("inproc solve: %v", err)
				}
				mustMaximum(t, a, oracle.Matching, "inproc")
				if oracle.Stats.Engine != name {
					t.Fatalf("Stats.Engine = %q, want %q", oracle.Stats.Engine, name)
				}

				eps, results := solveLoopbackTCP(t, a, cfg)
				for i, res := range results {
					if want, got := fmt.Sprint(oracle.Matching.MateR), fmt.Sprint(res.Matching.MateR); want != got {
						t.Errorf("endpoint %d MateR diverges:\n  inproc: %s\n  tcp:    %s", i, want, got)
					}
					if want, got := fmt.Sprint(oracle.Matching.MateC), fmt.Sprint(res.Matching.MateC); want != got {
						t.Errorf("endpoint %d MateC diverges", i)
					}
					r := eps[i].LocalRanks()[0]
					if want, got := oracle.PerRank[r], res.PerRank[r]; want != got {
						t.Errorf("rank %d meter: inproc %+v, tcp %+v", r, want, got)
					}
				}
			})
		}
	}
}

// TestEngineConformanceUnderFaults runs every engine under every fault plan
// with checkpoint/restart and requires a maximum matching after recovery.
func TestEngineConformanceUnderFaults(t *testing.T) {
	a := rmat.MustGenerate(rmat.ER, 6, 4, 9)
	plans := map[string]func() *mpi.FaultPlan{
		"crash": func() *mpi.FaultPlan {
			return &mpi.FaultPlan{CrashRank: 1, CrashAtCollective: 25}
		},
		"crash-late": func() *mpi.FaultPlan {
			return &mpi.FaultPlan{CrashRank: 3, CrashAtCollective: 60}
		},
	}
	for _, name := range core.EngineNames() {
		for pname, plan := range plans {
			t.Run(name+"/"+pname, func(t *testing.T) {
				cfg := core.Config{
					Engine: name, Procs: 4, Seed: 7,
					CheckpointEvery: 1, OnCheckpoint: func(*core.Checkpoint) {},
					Fault: plan(),
				}
				res, rec, err := core.SolveRecoverable(a, cfg, core.RecoveryPolicy{})
				if err != nil {
					t.Fatalf("recoverable solve: %v", err)
				}
				if rec.Attempts < 2 {
					t.Fatalf("fault plan never fired: %+v", rec)
				}
				mustMaximum(t, a, res.Matching, "recovered")
			})
		}
	}
}

// TestCrossEngineResumeRefused takes a checkpoint under bfs and asserts
// bfs-ss refuses to resume from it, and vice versa.
func TestCrossEngineResumeRefused(t *testing.T) {
	a := rmat.MustGenerate(rmat.G500, 6, 4, 11)
	for _, pair := range [][2]string{
		{core.EngineBFS, core.EngineBFSSingleSource},
		{core.EngineBFSSingleSource, core.EngineBFS},
	} {
		from, to := pair[0], pair[1]
		var cks []*core.Checkpoint
		cfg := core.Config{Engine: from, Procs: 4, Seed: 1,
			CheckpointEvery: 1, OnCheckpoint: func(ck *core.Checkpoint) { cks = append(cks, ck) }}
		if _, err := core.Solve(a, cfg); err != nil {
			t.Fatal(err)
		}
		if len(cks) == 0 {
			t.Fatalf("%s: no checkpoints taken", from)
		}
		_, err := core.Solve(a, core.Config{Engine: to, Procs: 4, Seed: 1, Resume: cks[len(cks)-1]})
		if err == nil || !strings.Contains(err.Error(), "refusing cross-engine resume") {
			t.Fatalf("%s resumed a %s checkpoint: %v", to, from, err)
		}
	}
}

// TestCrossSemiringResumeRefused takes a checkpoint under the minparent
// semiring and asserts a randroot resume refuses it: the semiring steers
// every BFS tie-break, so the resumed trajectory would silently diverge.
func TestCrossSemiringResumeRefused(t *testing.T) {
	a := rmat.MustGenerate(rmat.G500, 6, 4, 11)
	var cks []*core.Checkpoint
	cfg := core.Config{Engine: core.EngineBFS, Procs: 4, Seed: 1, AddOp: semiring.MinParent,
		CheckpointEvery: 1, OnCheckpoint: func(ck *core.Checkpoint) { cks = append(cks, ck) }}
	if _, err := core.Solve(a, cfg); err != nil {
		t.Fatal(err)
	}
	if len(cks) == 0 {
		t.Fatal("no checkpoints taken")
	}
	_, err := core.Solve(a, core.Config{Engine: core.EngineBFS, Procs: 4, Seed: 1, AddOp: semiring.RandRoot, Resume: cks[len(cks)-1]})
	if err == nil || !strings.Contains(err.Error(), "config hash") {
		t.Fatalf("cross-semiring resume not refused: %v", err)
	}
}

// TestFacade covers the engine table as seen through core's exported
// surface: the canonical names are exactly the table and only canonical
// spellings validate.
func TestFacade(t *testing.T) {
	want := []string{core.EngineBFS, core.EngineBFSSingleSource}
	if names := core.EngineNames(); !slices.Equal(names, want) {
		t.Fatalf("EngineNames() = %v, want %v", names, want)
	}
	for _, alias := range []string{"graft", "bfs-graft", "ss", "single-source", "ms-bfs", "auction", "nope"} {
		if err := (core.Config{Engine: alias}).Validate(); err == nil {
			t.Fatalf("engine spelling %q accepted", alias)
		}
	}
}
