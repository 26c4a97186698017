package core

// The network half of the failure matrix: the retry engine crossed with
// wire-level faults on the tcp backend. Where recover_test.go pins recovery
// from process faults (crash, straggler, RMA failure) on the in-process
// world, this file pins the same bit-identical-recovery contract when each
// attempt is a loopback TCP world and the injected failures are a dropped
// link, a partition, a slow link — and a process crash observed through
// sockets instead of channels.

import (
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"mcmdist/internal/mpi"
	"mcmdist/internal/mpi/tcpnet"
	"mcmdist/internal/obs"
)

// tcpWorlds returns a Worlds provider building one loopback TCP world per
// attempt — the same worlds SolveRecoverable's public wiring builds. The
// fault plan rides Config.Fault, which every endpoint's world shares, so the
// terminal budget spans attempts.
func tcpWorlds(procs int) func(int, *Checkpoint) ([]mpi.Transport, error) {
	return func(int, *Checkpoint) ([]mpi.Transport, error) {
		return tcpnet.Loopback(procs)
	}
}

// netFaultCases is the network fault matrix: for each case a fresh plan
// (link faults, rank faults or both crossed) and whether it is terminal
// (must cost exactly one retry).
type netFaultCase struct {
	plan     func() *mpi.FaultPlan
	terminal bool
}

func netFaultCases() map[string]netFaultCase {
	return map[string]netFaultCase{
		"drop": {
			plan: func() *mpi.FaultPlan {
				return &mpi.FaultPlan{DropFrom: 0, DropTo: 1, DropAtFrame: 4}
			},
			terminal: true,
		},
		"partition": {
			plan: func() *mpi.FaultPlan {
				return &mpi.FaultPlan{Partition: []int{0, 1}, PartitionAtFrame: 3}
			},
			terminal: true,
		},
		"slow": {
			plan: func() *mpi.FaultPlan {
				return &mpi.FaultPlan{
					Seed: 5, SlowFrom: 0, SlowTo: 1,
					SlowDelay: 100 * time.Microsecond, SlowEvery: 2, SlowJitter: 50 * time.Microsecond,
				}
			},
			terminal: false,
		},
		"crash-over-tcp": {
			// A process fault observed through the socket plane: rank 1's
			// goroutine dies mid-collective and its peers see genuine link
			// death, not an injected wire fault.
			plan: func() *mpi.FaultPlan {
				return &mpi.FaultPlan{CrashRank: 1, CrashAtCollective: 6}
			},
			terminal: true,
		},
		"straggler-over-tcp": {
			plan: func() *mpi.FaultPlan {
				return &mpi.FaultPlan{
					Seed: 1, StragglerRank: 2,
					StragglerDelay: 100 * time.Microsecond, StragglerEvery: 3,
				}
			},
			terminal: false,
		},
		"drop-and-straggler": {
			// Crossed axes: a timing perturbation on one rank while a link
			// drops — recovery must still converge to the clean matching.
			plan: func() *mpi.FaultPlan {
				return &mpi.FaultPlan{
					DropFrom: 1, DropTo: 0, DropAtFrame: 5,
					Seed: 2, StragglerRank: 3,
					StragglerDelay: 50 * time.Microsecond, StragglerEvery: 4,
				}
			},
			terminal: true,
		},
	}
}

// TestRecoverableNetFaultMatrix is the acceptance sweep over the tcp
// backend: every network fault case must recover to the exact matching of
// the clean in-process solve — same cardinality, bit-for-bit identical mate
// vectors — with the retry accounting matching what fired.
func TestRecoverableNetFaultMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	a := randomBipartite(rng, 60, 60, 140)
	base := Config{Procs: 4, Init: InitGreedy, CheckpointEvery: 1}
	clean := mustSolve(t, a, base)
	for name, tc := range netFaultCases() {
		t.Run(name, func(t *testing.T) {
			plan := tc.plan()
			cfg := base
			cfg.Fault = plan
			pol := RecoveryPolicy{
				Backoff: time.Millisecond, MaxBackoff: time.Millisecond,
				Worlds: tcpWorlds(4),
			}
			res, rec, err := SolveRecoverable(a, cfg, pol)
			if err != nil {
				t.Fatalf("recoverable solve over tcp failed: %v (recovery %+v)", err, rec)
			}
			if err := res.Matching.Validate(a); err != nil {
				t.Fatal(err)
			}
			if res.Stats.Cardinality != clean.Stats.Cardinality {
				t.Fatalf("recovered cardinality %d, clean %d", res.Stats.Cardinality, clean.Stats.Cardinality)
			}
			for i := range clean.Matching.MateR {
				if res.Matching.MateR[i] != clean.Matching.MateR[i] {
					t.Fatalf("MateR[%d] = %d, clean %d", i, res.Matching.MateR[i], clean.Matching.MateR[i])
				}
			}
			for j := range clean.Matching.MateC {
				if res.Matching.MateC[j] != clean.Matching.MateC[j] {
					t.Fatalf("MateC[%d] = %d, clean %d", j, res.Matching.MateC[j], clean.Matching.MateC[j])
				}
			}
			fired := plan.Fired()
			if tc.terminal {
				if fired != 1 {
					t.Fatalf("terminal case fired %d faults, want exactly 1", fired)
				}
				if rec.Retries != 1 {
					t.Fatalf("one terminal fault cost %d retries", rec.Retries)
				}
			} else {
				if fired != 0 || rec.Retries != 0 {
					t.Fatalf("timing-only case fired %d, retried %d — want 0/0", fired, rec.Retries)
				}
			}
			if rec.Attempts != rec.Retries+1 || len(rec.Errors) != rec.Retries {
				t.Fatalf("inconsistent accounting: %+v", rec)
			}
		})
	}
}

// TestRecoverableOnePlanOneBudget pins the merged plan's budget: one plan
// arms a rank crash and a link drop on loopback tcp, and with MaxFires 1
// they share one terminal fault between them. The crash fires first (rank 1
// never finishes its second collective, so the first world cannot ship the
// drop's fourth frame on 0->1); the retry starts before any checkpoint and
// ships that frame, and must still run clean — a separate link budget would
// drop it and cost a second retry.
func TestRecoverableOnePlanOneBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	a := randomBipartite(rng, 60, 60, 140)
	clean := mustSolve(t, a, Config{Procs: 4, Init: InitGreedy})
	plan := &mpi.FaultPlan{
		CrashRank: 1, CrashAtCollective: 2,
		DropFrom: 0, DropTo: 1, DropAtFrame: 4,
		MaxFires: 1,
	}
	cfg := Config{Procs: 4, Init: InitGreedy, CheckpointEvery: 1, Fault: plan}
	pol := RecoveryPolicy{
		Backoff: time.Millisecond, MaxBackoff: time.Millisecond,
		Worlds: tcpWorlds(4),
	}
	res, rec, err := SolveRecoverable(a, cfg, pol)
	if err != nil {
		t.Fatalf("recoverable solve failed: %v (recovery %+v)", err, rec)
	}
	if got := plan.Fired(); got != 1 {
		t.Fatalf("plan fired %d faults, want exactly 1", got)
	}
	if rec.Retries != 1 {
		t.Fatalf("retries %d, want 1 (errors %v)", rec.Retries, rec.Errors)
	}
	if !slices.Equal(res.Matching.MateR, clean.Matching.MateR) || !slices.Equal(res.Matching.MateC, clean.Matching.MateC) {
		t.Fatal("recovered mates differ from the clean solve")
	}
}

// TestRecoverableFlightRecorder pins the crash flight recorder on a world
// no supervisor runs: a loopback TCP attempt killed by a dropped link
// leaves one decodable generation-0 dump per endpoint, the recovery stats
// list them, and the recovered mates still match the clean solve.
func TestRecoverableFlightRecorder(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	a := randomBipartite(rng, 60, 60, 140)
	dir := t.TempDir()
	cfg := Config{Procs: 4, Init: InitGreedy, CheckpointEvery: 1, FlightDir: dir,
		Obs:   obs.NewCollector(4, obs.Options{Spans: true}),
		Fault: &mpi.FaultPlan{DropFrom: 0, DropTo: 1, DropAtFrame: 4}}
	clean := mustSolve(t, a, Config{Procs: 4, Init: InitGreedy})
	pol := RecoveryPolicy{
		Backoff: time.Millisecond, MaxBackoff: time.Millisecond,
		Worlds: tcpWorlds(4),
	}
	res, rec, err := SolveRecoverable(a, cfg, pol)
	if err != nil {
		t.Fatalf("recoverable solve failed: %v (recovery %+v)", err, rec)
	}
	if rec.Retries != 1 {
		t.Fatalf("retries %d, want 1", rec.Retries)
	}
	want, err := filepath.Glob(filepath.Join(dir, "flight-g0-r*.dump"))
	if err != nil || len(want) != 4 {
		t.Fatalf("generation-0 dumps %v (%v), want one per endpoint", want, err)
	}
	if !slices.Equal(rec.FlightDumps, want) {
		t.Fatalf("RecoveryStats.FlightDumps = %v, want %v", rec.FlightDumps, want)
	}
	for _, path := range want {
		d, err := obs.ReadFlightDump(path)
		if err != nil {
			t.Fatalf("dump %s does not decode: %v", path, err)
		}
		if d.Gen != 0 || d.Cause == "" || len(d.Ranks) != 1 {
			t.Errorf("dump %s: generation %d, cause %q, %d ranks", path, d.Gen, d.Cause, len(d.Ranks))
		}
	}
	if !slices.Equal(res.Matching.MateR, clean.Matching.MateR) || !slices.Equal(res.Matching.MateC, clean.Matching.MateC) {
		t.Fatal("recovered mates differ from the clean solve")
	}
}

// TestRecoverableNetFaultDeterministicErrors pins the retry engine's error
// stream on the tcp backend: the same drop spec produces the same recorded
// attempt error, run after run — the property that makes recovery failures
// diagnosable from a single log line.
func TestRecoverableNetFaultDeterministicErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := randomBipartite(rng, 50, 50, 120)
	texts := make([]string, 2)
	for run := range texts {
		f := &mpi.FaultPlan{DropFrom: 0, DropTo: 1, DropAtFrame: 4}
		cfg := Config{Procs: 4, Init: InitGreedy, CheckpointEvery: 1, Fault: f}
		pol := RecoveryPolicy{
			Backoff: time.Millisecond, MaxBackoff: time.Millisecond,
			Worlds: tcpWorlds(4),
		}
		_, rec, err := SolveRecoverable(a, cfg, pol)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if len(rec.Errors) != 1 {
			t.Fatalf("run %d: %d attempt errors, want 1", run, len(rec.Errors))
		}
		if !errors.Is(rec.Errors[0], mpi.ErrInjectedNetFault) {
			t.Fatalf("run %d: attempt error lost the injected sentinel: %v", run, rec.Errors[0])
		}
		texts[run] = rec.Errors[0].Error()
	}
	if texts[0] != texts[1] {
		t.Fatalf("attempt errors differ across identical runs:\n run 0: %s\n run 1: %s", texts[0], texts[1])
	}
	if !strings.Contains(texts[0], "dropped at data frame") {
		t.Fatalf("attempt error names no trigger point: %s", texts[0])
	}
}
