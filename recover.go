package mcmdist

import (
	"fmt"
	"runtime/debug"
	"time"

	"mcmdist/internal/core"
	"mcmdist/internal/mpi"
	"mcmdist/internal/mpi/tcpnet"
)

// FaultSpec configures the deterministic fault injector for a recoverable
// solve: rank faults (crash, straggler, RMA failure) and, on the tcp
// transport, link faults (drop, partition, slow link). It mirrors the
// runtime's one fault plan: faults trigger at fixed points in each rank's
// own operation stream — its Nth collective, its Nth one-sided op, the Nth
// data frame it ships on a link — so a given spec reproduces the same
// failure on every execution. The zero value injects nothing. Terminal
// faults (crash, RMA failure, drop, partition) share one budget of MaxFires
// (default 1) across all attempts of one SolveRecoverable call, which is
// what lets the retry observe the failure once and then run clean. It is
// not an alias of the internal plan, which carries that budget as an atomic
// counter: each call copies the spec into a fresh plan.
type FaultSpec struct {
	// Seed drives the straggler and slow-link jitter.
	Seed int64
	// CrashRank dies upon entering its CrashAtCollective-th collective
	// (1-based, counted per rank). CrashAtCollective 0 disables.
	CrashRank, CrashAtCollective int
	// StragglerRank sleeps StragglerDelay (plus seeded jitter up to
	// StragglerJitter) on every StragglerEvery-th collective entry (default
	// every one). Delay 0 disables. Stragglers perturb timing only; results
	// stay bit-identical and no retry is triggered.
	StragglerRank int
	// StragglerDelay is the base sleep injected at each triggering entry.
	StragglerDelay time.Duration
	// StragglerEvery selects which collective entries sleep (default 1).
	StragglerEvery int
	// StragglerJitter bounds the additional seeded random delay.
	StragglerJitter time.Duration
	// RMAFailRank dies on its RMAFailAt-th one-sided operation (1-based).
	// RMAFailAt 0 disables.
	RMAFailRank, RMAFailAt int
	// DropFrom/DropTo name the directed link the drop fault severs; the
	// receiving side observes genuine peer death. Link faults need
	// RecoveryPolicy.Transport "tcp": the in-process backend has no wire.
	DropFrom, DropTo int
	// DropAtFrame is the 1-based data frame (counted per link at the
	// sender) whose send severs the link. 0 disables.
	DropAtFrame int
	// Partition is the rank set whose every link to the complement is
	// severed when the cut fires.
	Partition []int
	// PartitionAtFrame is the 1-based cross-cut data frame (counted at the
	// set's lowest rank) whose send enacts the cut. 0 disables.
	PartitionAtFrame int
	// SlowFrom/SlowTo name the directed link the slow fault delays. Timing
	// only — results stay bit-identical, and no retry is triggered.
	SlowFrom, SlowTo int
	// SlowDelay is the base delay injected per triggering frame; 0 disables.
	SlowDelay time.Duration
	// SlowEvery selects which data frames are delayed (default every one).
	SlowEvery int
	// SlowJitter bounds the additional seeded random delay.
	SlowJitter time.Duration
	// MaxFires bounds how many terminal faults fire in total across the
	// retry loop. 0 means 1.
	MaxFires int
}

// plan converts the spec into a fresh fault plan. Each SolveRecoverable call
// gets its own plan so the terminal-fault budget restarts per call.
func (f *FaultSpec) plan() *mpi.FaultPlan {
	if f == nil {
		return nil
	}
	return &mpi.FaultPlan{
		Seed:              f.Seed,
		CrashRank:         f.CrashRank,
		CrashAtCollective: f.CrashAtCollective,
		StragglerRank:     f.StragglerRank,
		StragglerDelay:    f.StragglerDelay,
		StragglerEvery:    f.StragglerEvery,
		StragglerJitter:   f.StragglerJitter,
		RMAFailRank:       f.RMAFailRank,
		RMAFailAt:         f.RMAFailAt,
		DropFrom:          f.DropFrom,
		DropTo:            f.DropTo,
		DropAtFrame:       f.DropAtFrame,
		Partition:         f.Partition,
		PartitionAtFrame:  f.PartitionAtFrame,
		SlowFrom:          f.SlowFrom,
		SlowTo:            f.SlowTo,
		SlowDelay:         f.SlowDelay,
		SlowEvery:         f.SlowEvery,
		SlowJitter:        f.SlowJitter,
		MaxFires:          f.MaxFires,
	}
}

// linkFaults reports whether the spec arms a link fault (drop, partition
// or slow link), which only a backend with a wire can inject.
func (f *FaultSpec) linkFaults() bool {
	return f != nil && (f.DropAtFrame > 0 || f.PartitionAtFrame > 0 || f.SlowDelay > 0)
}

// RecoveryPolicy configures SolveRecoverable: how often to checkpoint, how
// hard to watch for progress, and how many times to retry a faulted attempt.
type RecoveryPolicy struct {
	// MaxRetries bounds how many times a faulted attempt is retried before
	// its error is surfaced. 0 means 3.
	MaxRetries int
	// Backoff is the sleep before the first retry, doubling each further
	// retry up to MaxBackoff. 0 means 5ms (capped at 500ms).
	Backoff time.Duration
	// MaxBackoff caps the exponential backoff.
	MaxBackoff time.Duration
	// CheckpointEvery takes a phase-boundary checkpoint after the
	// initializer and after every CheckpointEvery-th augmentation phase.
	// 0 means every phase; negative disables checkpointing (retries then
	// restart from scratch).
	CheckpointEvery int
	// WatchdogTimeout arms the simulator's progress watchdog: an attempt
	// making no communication progress for this long is aborted (and then
	// retried like any other fault). 0 leaves the watchdog off.
	WatchdogTimeout time.Duration
	// Fault optionally injects deterministic rank and link faults, for
	// testing the recovery path itself. Link faults require Transport
	// "tcp", since the in-process backend has no wire to fail.
	Fault *FaultSpec
	// Transport selects the backend the recovery loop provisions for each
	// attempt: "" or "inproc" runs every rank as a goroutine of this
	// process; "tcp" builds a fresh loopback TCP world per attempt — the
	// socket path, failure detector included, without the process
	// separation. (A solve that actually spans OS processes runs the same
	// loop over rendezvous worlds; see docs/FAULTS.md.)
	Transport string
}

// Recovery reports what the recovery loop of a SolveRecoverable call did.
// It copies the solver's recovery stats without their observation
// collector, whose data reaches callers as Stats.Obs.
type Recovery struct {
	// Attempts counts solve attempts run (1 when no fault occurred);
	// Retries is Attempts minus one unless the final attempt also failed.
	Attempts, Retries int
	// Checkpoints counts snapshots taken across all attempts.
	Checkpoints int
	// CheckpointBytes is the snapshots' total encoded volume.
	CheckpointBytes int64
	// CheckpointWall is the wall time the successful attempt spent taking
	// checkpoints (the recovery plane's overhead on the critical path).
	CheckpointWall time.Duration
	// ResumedPhase is the augmentation phase the final attempt restarted
	// from (0 when it started fresh or resumed the initializer snapshot).
	ResumedPhase int
}

func recoveryFromCore(r *core.RecoveryStats) *Recovery {
	if r == nil {
		return nil
	}
	return &Recovery{
		Attempts:        r.Attempts,
		Retries:         r.Retries,
		Checkpoints:     r.Checkpoints,
		CheckpointBytes: r.CheckpointBytes,
		CheckpointWall:  r.CheckpointWall,
		ResumedPhase:    r.ResumedPhase,
	}
}

// SolveRecoverable runs MaximumMatching under the fault-tolerant execution
// plane: phase-boundary checkpoints, an optional progress watchdog, and a
// bounded-retry restart loop that resumes a faulted attempt from the last
// checkpoint (verified to be a valid matching of the graph before use). A
// failure no restart can cure — a genuine panic, say — surfaces after its
// first attempt.
// Each attempt gets a fresh world on the backend pol.Transport selects —
// goroutine ranks by default, a loopback TCP world (sockets, heartbeats,
// the lot) with "tcp" — and pol.Fault injects deterministic process and
// network failures for testing the recovery paths themselves.
// opts.Procs, opts.Permute and the grid are handled as in MaximumMatching.
// opts.Observe records every attempt into a fresh collector, and Stats.Obs
// is the final attempt's.
func (dg *DistributedGraph) SolveRecoverable(opts Options, pol RecoveryPolicy) (m *Matching, st *Stats, rec *Recovery, err error) {
	defer guard(&err)
	cfg, err := dg.config(opts)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg.Obs = opts.Observe.collector(dg.procs)
	switch {
	case pol.CheckpointEvery < 0:
		cfg.CheckpointEvery = 0
	case pol.CheckpointEvery == 0:
		cfg.CheckpointEvery = 1
	default:
		cfg.CheckpointEvery = pol.CheckpointEvery
	}
	cfg.WatchdogTimeout = pol.WatchdogTimeout
	cfg.Fault = pol.Fault.plan()
	corePol := core.RecoveryPolicy{
		MaxRetries: pol.MaxRetries,
		Backoff:    pol.Backoff,
		MaxBackoff: pol.MaxBackoff,
	}
	switch pol.Transport {
	case "", "inproc":
		if pol.Fault.linkFaults() {
			return nil, nil, nil, fmt.Errorf("mcmdist: link faults in RecoveryPolicy.Fault require Transport %q (the in-process backend has no wire to fail)", "tcp")
		}
	case "tcp":
		procs := dg.procs
		corePol.Worlds = func(int, *core.Checkpoint) ([]mpi.Transport, error) {
			return tcpnet.Loopback(procs)
		}
	default:
		return nil, nil, nil, fmt.Errorf("mcmdist: unknown RecoveryPolicy.Transport %q (want inproc or tcp)", pol.Transport)
	}
	res, crec, err := core.SolveRecoverableGrid(dg.g.a, dg.side, dg.side,
		dg.g.Rows(), dg.g.Cols(), dg.blocks, cfg, dg.ctxs, corePol)
	if err != nil {
		return nil, nil, recoveryFromCore(crec), err
	}
	return fromInternal(res.Matching), statsFromCore(res, crec.Obs), recoveryFromCore(crec), nil
}

// PanicError is a panic that escaped the library internals, converted to an
// error at the public API boundary. Panics attributed to a simulated rank
// arrive as *mpi.RankError instead (with the rank and operation); PanicError
// covers the driver-side remainder — distribution, gathering, conversion.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error formats the panic value.
func (e *PanicError) Error() string {
	return fmt.Sprintf("mcmdist: internal panic: %v", e.Value)
}

// guard converts a panic into a returned error; every public entry point
// defers it so no internal failure crashes the embedding process. Rank-level
// panics are already contained by the simulator (they surface as
// *mpi.RankError through the normal error return); guard catches what
// happens outside the rank goroutines.
func guard(err *error) {
	p := recover()
	if p == nil {
		return
	}
	if re, ok := p.(*mpi.RankError); ok {
		*err = re
		return
	}
	*err = &PanicError{Value: p, Stack: debug.Stack()}
}
