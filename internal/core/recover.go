package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mcmdist/internal/matching"
	"mcmdist/internal/mpi"
	"mcmdist/internal/rmat"
	"mcmdist/internal/rt"
	"mcmdist/internal/spmat"
	"mcmdist/internal/verify"
)

// RecoveryPolicy bounds the retry loop of a recoverable solve.
type RecoveryPolicy struct {
	// MaxRetries is how many times a faulted attempt is retried before the
	// last error is surfaced. Zero means the default of 3.
	MaxRetries int
	// Backoff is the sleep before the first retry; each further retry
	// doubles it up to MaxBackoff. Zero means 5ms (capped at 500ms).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// DisableVerify skips the validity check on restored checkpoints.
	// Verification is the safety net that keeps a corrupted snapshot from
	// silently poisoning the restarted solve; leave it on outside of tests.
	DisableVerify bool
	// Worlds provisions the transport endpoints for attempt generation gen
	// (0 for the first attempt, 1 for the first retry, ...). Nil keeps the
	// historical in-process behavior: a fresh inproc world per attempt.
	// When set, the retry engine runs every returned endpoint concurrently
	// in this process — the loopback form of a multi-process deployment —
	// taking the result from the endpoint hosting rank 0 and Closing every
	// endpoint when the attempt ends, success or failure. (A solve that
	// actually spans OS processes restarts through distjob.Supervise, which
	// re-runs rendezvous per generation; this hook is the same engine
	// exercised in one process.)
	Worlds func(gen int) ([]mpi.Transport, error)
}

func (p RecoveryPolicy) withDefaults() RecoveryPolicy {
	if p.MaxRetries <= 0 {
		p.MaxRetries = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = 5 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 500 * time.Millisecond
	}
	return p
}

// RecoveryStats reports what the retry engine did: attempts run, retries
// (attempts minus one, unless the first try succeeded), checkpoints taken
// across all attempts with their encoded volume, the wall time the
// successful attempt spent checkpointing, and the phase the final attempt
// resumed from (0 when it started fresh).
type RecoveryStats struct {
	Attempts        int
	Retries         int
	Checkpoints     int
	CheckpointBytes int64
	CheckpointWall  time.Duration
	ResumedPhase    int
	// Errors collects each failed attempt's error, in order.
	Errors []error
}

// SolveRecoverable is Solve with checkpoint/restart: it runs the solve under
// the configured fault plane and, when an attempt dies (injected fault,
// genuine panic, watchdog abort), restarts it from the last phase-boundary
// checkpoint with exponential backoff, up to pol.MaxRetries times. Restored
// checkpoints are verified to encode a valid matching of a before resuming
// (unless pol.DisableVerify). cfg.CheckpointEvery should be positive; with
// checkpointing disabled the retry simply restarts from scratch.
func SolveRecoverable(a *spmat.CSC, cfg Config, pol RecoveryPolicy) (*Result, *RecoveryStats, error) {
	cfg = cfg.withDefaults()
	pr, pc, err := cfg.gridShape()
	if err != nil {
		return nil, nil, err
	}
	cfg.Procs = pr * pc

	// Permute once, outside the retry loop, so every attempt (and every
	// checkpoint) lives in one consistent permuted index space.
	work := a
	var rowPerm, colPerm []int
	if cfg.Permute {
		rowPerm = rmat.RandomPermutation(a.NRows, cfg.Seed*2+1)
		colPerm = rmat.RandomPermutation(a.NCols, cfg.Seed*2+2)
		work = a.Permute(rowPerm, colPerm)
	}
	blocks := spmat.Distribute2D(work, pr, pc)
	blocksT := spmat.Distribute2D(work.Transpose(), pr, pc)

	res, rec, err := SolveRecoverableGrid(work, pr, pc, work.NRows, work.NCols, blocks, blocksT, cfg, nil, pol)
	if err != nil {
		return nil, rec, err
	}
	if cfg.Permute {
		res.Matching = unpermute(res.Matching, rowPerm, colPerm)
	}
	return res, rec, nil
}

// SolveRecoverableGrid is the retry engine behind SolveRecoverable, for
// callers whose matrix is already distributed (the session API). a is the
// assembled matrix in the same index space as the blocks, used only to
// verify restored checkpoints; nil skips that check. ctxs optionally reuses
// per-rank runtime contexts across attempts and solves (worker pools hold
// no communicator state, so a context that survived an aborted attempt is
// safe to rebind); nil builds fresh contexts per attempt.
func SolveRecoverableGrid(a *spmat.CSC, pr, pc, n1, n2 int, blocks, blocksT [][]*spmat.LocalMatrix,
	cfg Config, ctxs []*rt.Ctx, pol RecoveryPolicy) (*Result, *RecoveryStats, error) {
	cfg = cfg.withDefaults()
	cfg.Procs = pr * pc
	// Resolve the engine once, up front, so validateCheckpoint compares
	// hashes against the same concrete engine every attempt runs (an "auto"
	// choice must not drift between attempts of one recoverable solve).
	cfg, err := ResolveEngineConfig(cfg, n1, n2, blocks)
	if err != nil {
		return nil, nil, err
	}
	pol = pol.withDefaults()
	rec := &RecoveryStats{}

	// Capture the freshest checkpoint as it is produced (rank 0 writes it
	// inside the attempt; mpi.Run's completion orders that write before the
	// driver's read), chaining to any caller-supplied handler.
	var last *Checkpoint
	if cfg.CheckpointEvery > 0 {
		userCB := cfg.OnCheckpoint
		if userCB == nil {
			userCB = func(*Checkpoint) {}
		}
		cfg.OnCheckpoint = func(ck *Checkpoint) {
			last = ck
			rec.Checkpoints++
			rec.CheckpointBytes += int64(ck.EncodedSize())
			userCB(ck)
		}
	}

	backoff := pol.Backoff
	for gen := 0; ; gen++ {
		rec.Attempts++
		// Each attempt gets a fresh world: a nil pol.Worlds selects the
		// inproc backend; otherwise the provider builds the generation's
		// endpoints (tcpnet loopback in tests, distjob.Supervise across real
		// processes — see docs/TRANSPORT.md).
		res, err := runRecoveryAttempt(pr, pc, n1, n2, blocks, blocksT, cfg, ctxs, pol, gen)
		if err == nil {
			rec.CheckpointWall = res.Stats.CheckpointWall
			return res, rec, nil
		}
		rec.Errors = append(rec.Errors, err)
		if rec.Retries >= pol.MaxRetries {
			return nil, rec, fmt.Errorf("core: solve failed after %d attempts: %w", rec.Attempts, err)
		}
		if last != nil {
			if verr := validateCheckpoint(a, cfg, n1, n2, last, pol); verr != nil {
				return nil, rec, fmt.Errorf("core: cannot restart, checkpoint rejected: %w (attempt failed with %v)", verr, err)
			}
			cfg.Resume = last
			rec.ResumedPhase = last.Phase
		}
		rec.Retries++
		time.Sleep(backoff)
		backoff *= 2
		if backoff > pol.MaxBackoff {
			backoff = pol.MaxBackoff
		}
	}
}

// runRecoveryAttempt runs one attempt generation of the retry engine. With
// no Worlds provider it is exactly the historical in-process attempt. With
// one, every endpoint of the generation runs concurrently (each hosting its
// own ranks), the result comes from the endpoint hosting rank 0 — mate
// vectors are allgathered, so it holds the full matching — and all endpoints
// are Closed before returning, so a failed generation leaves no goroutines
// or sockets behind for the next one to trip over.
func runRecoveryAttempt(pr, pc, n1, n2 int, blocks, blocksT [][]*spmat.LocalMatrix,
	cfg Config, ctxs []*rt.Ctx, pol RecoveryPolicy, gen int) (*Result, error) {
	if pol.Worlds == nil {
		return runAttemptGrid(nil, pr, pc, n1, n2, blocks, blocksT, cfg, ctxs)
	}
	eps, err := pol.Worlds(gen)
	if err != nil {
		return nil, fmt.Errorf("core: provisioning attempt generation %d: %w", gen, err)
	}
	results := make([]*Result, len(eps))
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep mpi.Transport) {
			defer wg.Done()
			defer ep.Close()
			results[i], errs[i] = runAttemptGrid(ep, pr, pc, n1, n2, blocks, blocksT, cfg, ctxs)
		}(i, ep)
	}
	wg.Wait()
	if err := pickAttemptError(errs); err != nil {
		return nil, err
	}
	for i, ep := range eps {
		for _, r := range ep.LocalRanks() {
			if r == 0 {
				return results[i], nil
			}
		}
	}
	return nil, fmt.Errorf("core: no endpoint of generation %d hosted rank 0", gen)
}

// pickAttemptError selects the error a failed multi-endpoint attempt
// surfaces: the first injected-fault error when one exists (the endpoint
// where the fault actually fired, rather than a peer's view of the ensuing
// abort), otherwise the first non-nil error in endpoint order. Both rules
// are deterministic given deterministic faults, which keeps the retry
// engine's error stream reproducible.
func pickAttemptError(errs []error) error {
	for _, e := range errs {
		if e != nil && (errors.Is(e, mpi.ErrInjectedNetFault) ||
			errors.Is(e, mpi.ErrInjectedCrash) || errors.Is(e, mpi.ErrInjectedRMAFailure)) {
			return e
		}
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// validateCheckpoint is the pre-restart safety net: shape, config hash,
// internally consistent cardinality, and (when the matrix is available and
// verification is on) a full validity check that every matched pair is an
// edge and the two mate vectors agree.
func validateCheckpoint(a *spmat.CSC, cfg Config, n1, n2 int, ck *Checkpoint, pol RecoveryPolicy) error {
	if ck.N1 != n1 || ck.N2 != n2 {
		return fmt.Errorf("checkpoint is %dx%d, problem is %dx%d", ck.N1, ck.N2, n1, n2)
	}
	if len(ck.MateR) != n1 || len(ck.MateC) != n2 {
		return fmt.Errorf("checkpoint mate vectors are %dx%d, want %dx%d", len(ck.MateR), len(ck.MateC), n1, n2)
	}
	if want := cfg.Engine; ck.Engine != "" && ck.Engine != want {
		return fmt.Errorf("checkpoint was taken by engine %q, refusing cross-engine resume with %q", ck.Engine, want)
	}
	if want := cfg.CheckpointHash(n1, n2); ck.ConfigHash != want {
		return fmt.Errorf("checkpoint config hash %#x does not match current config %#x", ck.ConfigHash, want)
	}
	if got := countMatched(ck.MateC); got != ck.Cardinality {
		return fmt.Errorf("checkpoint says cardinality %d but mate vector holds %d matches", ck.Cardinality, got)
	}
	if !pol.DisableVerify && a != nil {
		if err := verify.Valid(a, &matching.Matching{MateR: ck.MateR, MateC: ck.MateC}); err != nil {
			return fmt.Errorf("checkpoint is not a valid matching: %w", err)
		}
	}
	return nil
}
