package core

import (
	"math/rand"
	"testing"
	"time"

	"mcmdist/internal/mpi"
)

// faultPlans returns the fault matrix rows: one fresh plan per call because a
// plan carries its fired-budget across runs (that is the point).
func faultPlans() map[string]func() *mpi.FaultPlan {
	return map[string]func() *mpi.FaultPlan{
		"crash": func() *mpi.FaultPlan {
			return &mpi.FaultPlan{CrashRank: 1, CrashAtCollective: 6}
		},
		"straggler": func() *mpi.FaultPlan {
			return &mpi.FaultPlan{
				Seed:            1,
				StragglerRank:   2,
				StragglerDelay:  100 * time.Microsecond,
				StragglerEvery:  3,
				StragglerJitter: 100 * time.Microsecond,
			}
		},
		"rma": func() *mpi.FaultPlan {
			return &mpi.FaultPlan{RMAFailRank: 1, RMAFailAt: 2}
		},
	}
}

// TestRecoverableFaultMatrix is the acceptance sweep from the issue: every
// fault kind crossed with initializer and augmentation strategy must recover
// to the exact matching of the corresponding clean solve — same cardinality
// and bit-for-bit identical mate vectors.
func TestRecoverableFaultMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := randomBipartite(rng, 60, 60, 140) // sparse: initializers leave augmenting work
	inits := []struct {
		name string
		init Init
	}{{"greedy", InitGreedy}, {"karp-sipser", InitKarpSipser}}
	augs := []struct {
		name string
		aug  AugmentMode
	}{{"level-parallel", AugmentLevelParallel}, {"path-parallel", AugmentPathParallel}}
	for _, in := range inits {
		for _, am := range augs {
			base := Config{Procs: 4, Init: in.init, Augment: am.aug}
			clean := mustSolve(t, a, base)
			for kind, mk := range faultPlans() {
				t.Run(kind+"/"+in.name+"/"+am.name, func(t *testing.T) {
					plan := mk()
					cfg := base
					cfg.Fault = plan
					cfg.CheckpointEvery = 1
					res, rec, err := SolveRecoverable(a, cfg, RecoveryPolicy{})
					if err != nil {
						t.Fatalf("recoverable solve failed: %v (recovery %+v)", err, rec)
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
					// A terminal fault (crash, rma) fires exactly once and
					// costs exactly one retry; a straggler (or a fault whose
					// trigger point is never reached, e.g. an RMA fault under
					// a collective-only augmenter) costs none.
					if (rec.Retries > 0) != (plan.Fired() > 0) {
						t.Fatalf("retries %d vs fired %d", rec.Retries, plan.Fired())
					}
					if plan.Fired() > 0 && rec.Retries != 1 {
						t.Fatalf("one injected fault cost %d retries", rec.Retries)
					}
					if rec.Attempts != rec.Retries+1 {
						t.Fatalf("attempts %d, retries %d", rec.Attempts, rec.Retries)
					}
					if len(rec.Errors) != rec.Retries {
						t.Fatalf("%d errors recorded for %d retries", len(rec.Errors), rec.Retries)
					}
					// CheckpointEvery 1 snapshots every phase, so every run
					// accounts for some serialized state.
					if rec.Checkpoints == 0 || rec.CheckpointBytes == 0 {
						t.Fatalf("no checkpoint accounting: %d checkpoints, %d bytes", rec.Checkpoints, rec.CheckpointBytes)
					}
				})
			}
		}
	}
}

// TestRecoverableResumesMidRun drives crashes at progressively later
// collectives until one lands after an augmentation-phase checkpoint, proving
// the restart actually resumes mid-run (ResumedPhase > 0) rather than always
// replaying from scratch.
func TestRecoverableResumesMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := randomBipartite(rng, 80, 80, 180)
	clean := mustSolve(t, a, Config{Procs: 4, Init: InitGreedy})
	resumedMidRun := false
	for _, at := range []int{40, 80, 120, 160} {
		plan := &mpi.FaultPlan{CrashRank: 2, CrashAtCollective: at}
		cfg := Config{Procs: 4, Init: InitGreedy, CheckpointEvery: 1, Fault: plan}
		res, rec, err := SolveRecoverable(a, cfg, RecoveryPolicy{})
		if err != nil {
			t.Fatalf("crash at collective %d: %v", at, err)
		}
		if res.Stats.Cardinality != clean.Stats.Cardinality {
			t.Fatalf("crash at collective %d: cardinality %d, clean %d",
				at, res.Stats.Cardinality, clean.Stats.Cardinality)
		}
		if plan.Fired() > 0 && rec.ResumedPhase > 0 {
			resumedMidRun = true
		}
	}
	if !resumedMidRun {
		t.Fatal("no crash point produced a mid-run resume (ResumedPhase > 0)")
	}
}

// TestRecoverableExhaustsRetries checks the failure path: a plan with a
// budget larger than the retry allowance must surface the injected error.
func TestRecoverableExhaustsRetries(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := randomBipartite(rng, 40, 40, 100)
	plan := &mpi.FaultPlan{CrashRank: 0, CrashAtCollective: 2, MaxFires: 10}
	cfg := Config{Procs: 4, Init: InitGreedy, CheckpointEvery: 1, Fault: plan}
	pol := RecoveryPolicy{MaxRetries: 2, Backoff: time.Millisecond, MaxBackoff: time.Millisecond}
	_, rec, err := SolveRecoverable(a, cfg, pol)
	if err == nil {
		t.Fatal("solve succeeded despite an inexhaustible fault")
	}
	if rec.Attempts != 3 || rec.Retries != 2 {
		t.Fatalf("attempts %d retries %d, want 3/2", rec.Attempts, rec.Retries)
	}
	if plan.Fired() != 3 {
		t.Fatalf("plan fired %d times, want one per attempt", plan.Fired())
	}
}

// TestRecoverableWithoutCheckpointing: recovery must still work (restart from
// scratch) when checkpointing is disabled.
func TestRecoverableWithoutCheckpointing(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := randomBipartite(rng, 50, 50, 120)
	clean := mustSolve(t, a, Config{Procs: 4, Init: InitGreedy})
	plan := &mpi.FaultPlan{CrashRank: 1, CrashAtCollective: 10}
	cfg := Config{Procs: 4, Init: InitGreedy, Fault: plan}
	res, rec, err := SolveRecoverable(a, cfg, RecoveryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cardinality != clean.Stats.Cardinality {
		t.Fatalf("cardinality %d, clean %d", res.Stats.Cardinality, clean.Stats.Cardinality)
	}
	if rec.Checkpoints != 0 || rec.ResumedPhase != 0 {
		t.Fatalf("checkpointing disabled but recovery saw %d checkpoints, resumed phase %d",
			rec.Checkpoints, rec.ResumedPhase)
	}
	if rec.Retries != 1 {
		t.Fatalf("retries %d, want 1", rec.Retries)
	}
}

// TestRecoverableUnderPermutation: the permute-once-outside-the-retry-loop
// design means checkpoints and restarts share one index space and the final
// result still maps back to the caller's.
func TestRecoverableUnderPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	a := randomBipartite(rng, 45, 50, 200)
	clean := mustSolve(t, a, Config{Procs: 4, Init: InitGreedy, Permute: true, Seed: 3})
	plan := &mpi.FaultPlan{CrashRank: 3, CrashAtCollective: 12}
	cfg := Config{Procs: 4, Init: InitGreedy, Permute: true, Seed: 3, CheckpointEvery: 1, Fault: plan}
	res, rec, err := SolveRecoverable(a, cfg, RecoveryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Matching.Validate(a); err != nil {
		t.Fatal(err)
	}
	if got, want := res.Matching.Cardinality(), clean.Matching.Cardinality(); got != want {
		t.Fatalf("cardinality %d, clean %d", got, want)
	}
	if plan.Fired() != 1 || rec.Retries != 1 {
		t.Fatalf("fired %d retries %d, want 1/1", plan.Fired(), rec.Retries)
	}
}
