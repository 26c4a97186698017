package core

import (
	"fmt"
	"testing"

	"mcmdist/internal/matching"
	"mcmdist/internal/mpi"
	"mcmdist/internal/obs"
	"mcmdist/internal/rmat"
	"mcmdist/internal/spmat"
	"mcmdist/internal/verify"
)

// liveColumnCount is the number of columns of a with at least one edge.
func liveColumnCount(a *spmat.CSC) int {
	n := 0
	for j := range a.NCols {
		if a.ColPtr[j+1] > a.ColPtr[j] {
			n++
		}
	}
	return n
}

// checkPhaseFrontiers checks that every rank opened every phase with a
// frontier of exactly the unmatched columns that have an edge. A phase's
// first sample records the frontier count (world-wide, so every rank's
// equals) and the cardinality the phase started from; every matched column
// has an edge, so live−matched is the number of live unmatched columns.
// Returns the number of phases checked on rank 0.
func checkPhaseFrontiers(t *testing.T, col *obs.Collector, procs, live int) int {
	t.Helper()
	phases := 0
	for rank := range procs {
		seen := map[int]bool{}
		for _, s := range col.Recorder(rank).Samples() {
			if seen[s.Phase] {
				continue
			}
			seen[s.Phase] = true
			if want := live - s.Matched; s.Frontier != want {
				t.Fatalf("rank %d phase %d (iteration %d): frontier %d, want %d live unmatched columns (%d live, %d matched)",
					rank, s.Phase, s.Iteration, s.Frontier, want, live, s.Matched)
			}
		}
		if rank == 0 {
			phases = len(seen)
		}
	}
	return phases
}

// checkMaximum checks a distributed matching against Hopcroft–Karp's
// cardinality and its König certificate.
func checkMaximum(t *testing.T, a *spmat.CSC, m *matching.Matching, want int) {
	t.Helper()
	if got := m.Cardinality(); got != want {
		t.Fatalf("cardinality %d, Hopcroft–Karp %d", got, want)
	}
	if err := verify.Maximum(a, m); err != nil {
		t.Fatal(err)
	}
}

// TestPhaseFrontierIsLiveUnmatched pins the frontier rule of the bfs
// phases: a phase starts from the unmatched columns that have an
// edge, never from an edgeless one, under every initializer and thread
// count, and in an attempt that resumed from a checkpoint (whose solve never
// ran an initializer). The G500 graph leaves about half its columns
// edgeless.
func TestPhaseFrontierIsLiveUnmatched(t *testing.T) {
	const procs = 4
	a := rmat.MustGenerate(rmat.G500, 10, 8, 7)
	live := liveColumnCount(a)
	if live > a.NCols*3/4 {
		t.Fatalf("only %d of %d columns are edgeless; the test needs many", a.NCols-live, a.NCols)
	}
	want := matching.HopcroftKarp(a, nil).Cardinality()
	for _, init := range []Init{InitNone, InitGreedy, InitKarpSipser, InitDynMinDegree} {
		for _, threads := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/%s/t%d", EngineBFS, init, threads), func(t *testing.T) {
				col := obs.NewCollector(procs, obs.Options{TimeSeries: true})
				res := mustSolve(t, a, Config{
					Procs: procs, Threads: threads, Init: init, Engine: EngineBFS, Obs: col,
				})
				checkMaximum(t, a, res.Matching, want)
				if checkPhaseFrontiers(t, col, procs, live) == 0 {
					t.Fatal("no phase recorded an iteration")
				}
			})
		}
	}

	t.Run("recoverable", func(t *testing.T) {
		// Crash ever later until an attempt resumes mid-run.
		for at := 40; at <= 400; at += 40 {
			plan := &mpi.FaultPlan{CrashRank: 1, CrashAtCollective: at}
			res, rec, err := SolveRecoverable(a, Config{
				Procs: procs, Init: InitGreedy, CheckpointEvery: 1, Fault: plan,
				Obs: obs.NewCollector(procs, obs.Options{TimeSeries: true}),
			}, RecoveryPolicy{})
			if err != nil {
				t.Fatalf("crash at collective %d: %v", at, err)
			}
			checkMaximum(t, a, res.Matching, want)
			if plan.Fired() == 0 || rec.ResumedPhase == 0 {
				continue
			}
			phases := checkPhaseFrontiers(t, rec.Obs, procs, live)
			if phases == 0 {
				t.Fatal("the resumed attempt recorded no iteration")
			}
			t.Logf("crash at collective %d, resumed from phase %d, %d phases checked", at, rec.ResumedPhase, phases)
			return
		}
		t.Fatal("no crash point produced a mid-run resume")
	})
}
