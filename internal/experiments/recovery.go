package experiments

import (
	"fmt"
	"io"
	"time"

	"mcmdist/internal/core"
	"mcmdist/internal/mpi"
)

// RecoveryOptions configures a recovery-overhead benchmark run.
type RecoveryOptions struct {
	// FaultKind selects the injected fault: "none", "crash", "straggler" or
	// "rma". Empty means none — the run then measures pure checkpointing
	// overhead against the clean baseline.
	FaultKind string
	// FaultRank is the rank the fault is injected on (default 1).
	FaultRank int
	// FaultAt is the 1-based collective (crash) or RMA op (rma) index that
	// triggers the fault (default 8).
	FaultAt int
	// FaultDelay is the straggler's per-collective sleep (default 100µs).
	FaultDelay time.Duration
	// CheckpointEvery is the phase stride between snapshots (default 1).
	CheckpointEvery int
	// Watchdog arms the progress watchdog with this timeout; 0 leaves it
	// off.
	Watchdog time.Duration
}

func (o RecoveryOptions) withDefaults() RecoveryOptions {
	if o.FaultKind == "" {
		o.FaultKind = "none"
	}
	if o.FaultRank == 0 {
		o.FaultRank = 1
	}
	if o.FaultAt == 0 {
		o.FaultAt = 8
	}
	if o.FaultDelay == 0 {
		o.FaultDelay = 100 * time.Microsecond
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 1
	}
	return o
}

// plan builds the fault plan the options describe, nil for "none".
func (o RecoveryOptions) plan() (*mpi.FaultPlan, error) {
	switch o.FaultKind {
	case "none":
		return nil, nil
	case "crash":
		return &mpi.FaultPlan{CrashRank: o.FaultRank, CrashAtCollective: o.FaultAt}, nil
	case "straggler":
		return &mpi.FaultPlan{
			StragglerRank:  o.FaultRank,
			StragglerDelay: o.FaultDelay,
			StragglerEvery: 4,
		}, nil
	case "rma":
		return &mpi.FaultPlan{RMAFailRank: o.FaultRank, RMAFailAt: o.FaultAt}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown fault kind %q", o.FaultKind)
	}
}

// RecoveryProfile is the machine-readable recovery-overhead report behind
// cmd/bench -json: what the fault plane and checkpoint/restart engine cost
// next to the clean solve of the same problem.
type RecoveryProfile struct {
	Matrix          string `json:"matrix"`
	Scale           int    `json:"scale"`
	Procs           int    `json:"procs"`
	FaultKind       string `json:"fault_kind"`
	CheckpointEvery int    `json:"checkpoint_every"`
	// Attempts/Retries count solve attempts of the recoverable run.
	Attempts int `json:"attempts"`
	Retries  int `json:"retries"`
	// Checkpoints and CheckpointBytes measure the serialized state volume;
	// CheckpointWallSeconds is the host time spent taking the snapshots.
	Checkpoints           int     `json:"checkpoints"`
	CheckpointBytes       int64   `json:"checkpoint_bytes"`
	CheckpointWallSeconds float64 `json:"checkpoint_wall_seconds"`
	// ResumedPhase is the phase the final attempt restarted from.
	ResumedPhase int `json:"resumed_phase"`
	// WallSeconds is the recoverable run end to end (all attempts, backoff
	// included); CleanWallSeconds the plain solve; OverheadFraction their
	// relative gap (wall/clean - 1).
	WallSeconds      float64 `json:"wall_seconds"`
	CleanWallSeconds float64 `json:"clean_wall_seconds"`
	OverheadFraction float64 `json:"overhead_fraction"`
	// Cardinality is the recovered matching size; CardinalityMatch reports
	// the recovery oracle — whether it equals the clean solve's.
	Cardinality      int  `json:"cardinality"`
	CardinalityMatch bool `json:"cardinality_match"`
}

// RecoveryBench measures the fault-tolerance plane: it solves the named
// suite matrix on cfg.Procs ranks once cleanly and once through
// core.SolveRecoverable under the given fault plan, and reports the recovery overhead (checkpoint volume and
// wall time, retries, end-to-end slowdown). The clean solve doubles as the
// correctness oracle: the recovered matching must reach the same
// cardinality.
func RecoveryBench(w io.Writer, cfg core.Config, name string, scale int, opts RecoveryOptions) RecoveryProfile {
	opts = opts.withDefaults()
	plan, err := opts.plan()
	if err != nil {
		panic(err)
	}
	a := suiteMatrix(name, scale)
	rc := core.Config{Procs: cfg.Procs, Init: core.InitDynMinDegree, Threads: cfg.Threads,
		DisableOverlap: cfg.DisableOverlap}

	cleanStart := time.Now()
	clean := run(cfg, a, rc)
	cleanWall := time.Since(cleanStart)

	rcfg := rc
	rcfg.Fault = plan
	rcfg.CheckpointEvery = opts.CheckpointEvery
	rcfg.WatchdogTimeout = opts.Watchdog
	recStart := time.Now()
	res, rec, err := core.SolveRecoverable(a, rcfg, core.RecoveryPolicy{Backoff: time.Millisecond})
	if err != nil {
		panic(fmt.Sprintf("experiments: recoverable solve: %v", err))
	}
	recWall := time.Since(recStart)

	p := RecoveryProfile{
		Matrix:                name,
		Scale:                 scale,
		Procs:                 cfg.Procs,
		FaultKind:             opts.FaultKind,
		CheckpointEvery:       opts.CheckpointEvery,
		Attempts:              rec.Attempts,
		Retries:               rec.Retries,
		Checkpoints:           rec.Checkpoints,
		CheckpointBytes:       rec.CheckpointBytes,
		CheckpointWallSeconds: rec.CheckpointWall.Seconds(),
		ResumedPhase:          rec.ResumedPhase,
		WallSeconds:           recWall.Seconds(),
		CleanWallSeconds:      cleanWall.Seconds(),
		Cardinality:           res.Stats.Cardinality,
		CardinalityMatch:      res.Stats.Cardinality == clean.Stats.Cardinality,
	}
	if cleanWall > 0 {
		p.OverheadFraction = recWall.Seconds()/cleanWall.Seconds() - 1
	}
	fmt.Fprintf(w, "recovery %s scale=%d p=%d fault=%s: |M|=%d (match=%v) attempts=%d retries=%d resumed-phase=%d\n",
		name, scale, cfg.Procs, opts.FaultKind, p.Cardinality, p.CardinalityMatch, p.Attempts, p.Retries, p.ResumedPhase)
	fmt.Fprintf(w, "  checkpoints=%d bytes=%d ckpt-wall=%.3fms total=%.3fms clean=%.3fms overhead=%.1f%%\n",
		p.Checkpoints, p.CheckpointBytes, p.CheckpointWallSeconds*1e3,
		p.WallSeconds*1e3, p.CleanWallSeconds*1e3, 100*p.OverheadFraction)
	return p
}
