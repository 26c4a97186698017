package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"mcmdist/internal/matching"
	"mcmdist/internal/mpi"
	"mcmdist/internal/obs"
	"mcmdist/internal/rt"
	"mcmdist/internal/spmat"
	"mcmdist/internal/verify"
)

// RecoveryPolicy bounds the recovery loop of a recoverable solve and names
// the worlds its attempts run on.
type RecoveryPolicy struct {
	// MaxRetries is how many times a restartable failure is retried before
	// the last error is surfaced. Zero means the default of 3.
	MaxRetries int
	// Backoff is the sleep before the first retry; each further retry
	// doubles it up to MaxBackoff. Zero means 5ms (capped at 500ms).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Worlds provisions the transport endpoints of attempt generation gen
	// (0 for the first attempt, 1 for the first retry, ...); resume is the
	// checkpoint the attempt resumes from (nil when it starts fresh), for
	// providers that ship it to other processes. Every returned endpoint
	// runs concurrently in this process, the result comes from the one
	// hosting rank 0, and every endpoint is Closed when the attempt ends.
	// Nil means a fresh in-process world per attempt; a loopback TCP world
	// per attempt is the public Transport "tcp", and distjob.Supervise
	// returns one rendezvous generation of a multi-process world.
	Worlds func(gen int, resume *Checkpoint) ([]mpi.Transport, error)
	// Log, when non-nil, receives one line per failed generation.
	Log func(format string, args ...any)
}

func (p RecoveryPolicy) withDefaults(procs int) RecoveryPolicy {
	if p.MaxRetries <= 0 {
		p.MaxRetries = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = 5 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 500 * time.Millisecond
	}
	if p.Worlds == nil {
		p.Worlds = func(int, *Checkpoint) ([]mpi.Transport, error) {
			return []mpi.Transport{mpi.NewInproc(procs)}, nil
		}
	}
	if p.Log == nil {
		p.Log = func(string, ...any) {}
	}
	return p
}

// RecoveryStats reports what the recovery loop did: attempts run, retries
// (attempts minus one, unless the last attempt also failed), checkpoints
// taken across all attempts with their encoded volume, the wall time the
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
	// FlightDumps lists, sorted, the flight dumps in Config.FlightDir once
	// an attempt has failed: this process's and those of any other process
	// sharing the directory.
	FlightDumps []string
	// Obs is the final attempt's collector, a fresh sibling of Config.Obs
	// (nil when that is nil). After a successful attempt it holds that
	// attempt's observation alone — on a multi-process coordinator, the
	// merged whole world.
	Obs *obs.Collector
}

// SolveRecoverable is Solve with checkpoint/restart: it runs the solve under
// the configured fault plane and, when an attempt dies of a restartable
// failure (mpi.Restartable: an injected fault, a dead peer, a watchdog
// abort), restarts it from the last phase-boundary checkpoint with
// exponential backoff, up to pol.MaxRetries times. Any other failure — a
// genuine panic, a configuration error — surfaces after its first attempt,
// since a retry would only reproduce it. Every checkpoint is verified to
// encode a valid matching of a before an attempt resumes from it.
// cfg.CheckpointEvery should be positive; with checkpointing disabled a
// retry simply restarts from scratch.
func SolveRecoverable(a *spmat.CSC, cfg Config, pol RecoveryPolicy) (*Result, *RecoveryStats, error) {
	cfg = cfg.withDefaults()
	pr, pc, err := cfg.gridShape()
	if err != nil {
		return nil, nil, err
	}
	cfg.Procs = pr * pc
	// Permute once, outside the retry loop, so every attempt (and every
	// checkpoint) lives in one consistent permuted index space. Blocks are
	// built once too, for the ranks the first world hosts.
	d := permute(a, cfg)
	res, rec, err := recoverLoop(d.work, pr, pc, d.work.NRows, d.work.NCols, cfg, nil, pol,
		func(ranks []int) [][]*spmat.LocalMatrix {
			return spmat.DistributeRanks(d.work, pr, pc, ranks)
		})
	if err != nil {
		return nil, rec, err
	}
	res.Matching = d.unpermute(res.Matching)
	return res, rec, nil
}

// SolveRecoverableGrid is SolveRecoverable for callers whose matrix is
// already distributed (the session API). a is the assembled matrix in the
// same index space as the blocks; it verifies checkpoints. ctxs optionally
// reuses per-rank runtime contexts across attempts and solves; nil borrows
// contexts from the process per attempt (RunDistributed), and a failed
// attempt's are dropped. A context that survived an aborted attempt is
// safe to rebind: attempt returns only once every endpoint of the failed
// world is closed and every rank it hosted has returned, so the next
// attempt's Bind takes back the vectors the crashed ranks held and the
// retry runs on warm storage.
func SolveRecoverableGrid(a *spmat.CSC, pr, pc, n1, n2 int, blocks [][]*spmat.LocalMatrix,
	cfg Config, ctxs []*rt.Ctx, pol RecoveryPolicy) (*Result, *RecoveryStats, error) {
	return recoverLoop(a, pr, pc, n1, n2, cfg, ctxs, pol,
		func([]int) [][]*spmat.LocalMatrix { return blocks })
}

// recovery is one recoverable solve's state across its attempts.
type recovery struct {
	a              *spmat.CSC
	pr, pc, n1, n2 int
	ctxs           []*rt.Ctx
	pol            RecoveryPolicy
	// place builds the blocks of the listed ranks. It runs once, for the
	// first world provisioned; hosted records that world's ranks, and a
	// later world hosting any other rank is an error.
	place  func(ranks []int) [][]*spmat.LocalMatrix
	blocks [][]*spmat.LocalMatrix
	hosted []int
}

// recoverLoop is the one recovery loop: every recoverable solve, on every
// backend, runs through it.
func recoverLoop(a *spmat.CSC, pr, pc, n1, n2 int, cfg Config, ctxs []*rt.Ctx, pol RecoveryPolicy,
	place func(ranks []int) [][]*spmat.LocalMatrix) (*Result, *RecoveryStats, error) {
	cfg = cfg.withDefaults()
	cfg.Procs = pr * pc
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	r := &recovery{a: a, pr: pr, pc: pc, n1: n1, n2: n2, ctxs: ctxs, pol: pol.withDefaults(cfg.Procs), place: place}
	rec := &RecoveryStats{}
	defer rec.collectFlightDumps(cfg.FlightDir)

	// Capture the freshest checkpoint as it is produced (the process
	// hosting rank 0 writes it inside the attempt; the attempt's completion
	// orders that write before the loop's read), chaining to any
	// caller-supplied handler.
	var last *Checkpoint
	if cfg.CheckpointEvery > 0 {
		userCB := cfg.OnCheckpoint
		cfg.OnCheckpoint = func(ck *Checkpoint) {
			last = ck
			rec.Checkpoints++
			rec.CheckpointBytes += int64(ck.EncodedSize())
			if userCB != nil {
				userCB(ck)
			}
		}
	}

	backoff := r.pol.Backoff
	for gen := 0; ; gen++ {
		rec.Attempts++
		attempt := cfg
		attempt.Obs = cfg.Obs.Sibling(cfg.Procs)
		rec.Obs = attempt.Obs
		res, err := r.attempt(gen, attempt)
		if err == nil {
			rec.CheckpointWall = res.Stats.CheckpointWall
			return res, rec, nil
		}
		rec.Errors = append(rec.Errors, err)
		if !mpi.Restartable(err) {
			return nil, rec, fmt.Errorf("core: attempt %d failed and is not restartable: %w", rec.Attempts, err)
		}
		if rec.Retries >= r.pol.MaxRetries {
			return nil, rec, fmt.Errorf("core: solve failed after %d attempts: %w", rec.Attempts, err)
		}
		from := "from scratch"
		if last != nil {
			if verr := validateCheckpoint(a, cfg, n1, n2, last); verr != nil {
				return nil, rec, fmt.Errorf("core: cannot restart, checkpoint rejected: %w (attempt failed with %v)", verr, err)
			}
			cfg.Resume = last
			rec.ResumedPhase = last.Phase
			from = fmt.Sprintf("from phase %d checkpoint", last.Phase)
		}
		r.pol.Log("generation %d failed (%v); restarting %s", gen, err, from)
		rec.Retries++
		time.Sleep(backoff)
		backoff = min(2*backoff, r.pol.MaxBackoff)
	}
}

// attempt provisions generation gen's world and runs one solve attempt on
// every endpoint of it. The result comes from the endpoint hosting rank 0
// (mate vectors are allgathered, so it holds the full matching). An
// endpoint whose solve fails leaves its flight dump; every endpoint is
// Closed before returning, so a failed generation leaves no goroutines or
// sockets behind for the next one to trip over.
func (r *recovery) attempt(gen int, cfg Config) (*Result, error) {
	eps, err := r.pol.Worlds(gen, cfg.Resume)
	if err != nil {
		return nil, fmt.Errorf("core: provisioning attempt generation %d: %w", gen, err)
	}
	if err := r.host(eps); err != nil {
		mpi.CloseAll(eps)
		return nil, err
	}
	results, errs := onEndpoints(eps, func(ep mpi.Transport) (*Result, error) {
		defer ep.Close()
		res, err := SolveBlocks(ep, r.pr, r.pc, r.n1, r.n2, r.blocks, cfg, r.ctxs, (*Solver).Solve)
		if err != nil {
			WriteFlightDump(cfg.FlightDir, gen, ep.LocalRanks(), cfg.Obs, err)
		}
		return res, err
	})
	if err := pickAttemptError(errs); err != nil {
		return nil, err
	}
	for i, ep := range eps {
		if slices.Contains(ep.LocalRanks(), 0) {
			return results[i], nil
		}
	}
	return nil, fmt.Errorf("core: no endpoint of generation %d hosted rank 0", gen)
}

// host builds the blocks for the first world's ranks and checks that a
// later world hosts no rank outside them.
func (r *recovery) host(eps []mpi.Transport) error {
	var ranks []int
	for _, ep := range eps {
		ranks = append(ranks, ep.LocalRanks()...)
	}
	if r.blocks == nil {
		r.hosted = ranks
		r.blocks = r.place(ranks)
		return nil
	}
	for _, rank := range ranks {
		if !slices.Contains(r.hosted, rank) {
			return fmt.Errorf("core: world hosts rank %d, which the first world did not", rank)
		}
	}
	return nil
}

// pickAttemptError selects the error a failed multi-endpoint attempt
// surfaces: the first injected-fault error when one exists (the endpoint
// where the fault actually fired, rather than a peer's view of the ensuing
// abort), otherwise the first non-nil error in endpoint order. Both rules
// are deterministic given deterministic faults, which keeps the recovery
// loop's error stream reproducible.
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

// validateCheckpoint is the pre-restart safety net: the admission check
// (shape, engine, config hash), internally consistent cardinality, and a
// full validity check that every matched pair is an edge and the two mate
// vectors agree.
func validateCheckpoint(a *spmat.CSC, cfg Config, n1, n2 int, ck *Checkpoint) error {
	if err := ck.admit(cfg, n1, n2); err != nil {
		return err
	}
	if got := countMatched(ck.MateC); got != ck.Cardinality {
		return fmt.Errorf("checkpoint says cardinality %d but mate vector holds %d matches", ck.Cardinality, got)
	}
	if err := verify.Valid(a, &matching.Matching{MateR: ck.MateR, MateC: ck.MateC}); err != nil {
		return fmt.Errorf("checkpoint is not a valid matching: %w", err)
	}
	return nil
}

// WriteFlightDump is the crash flight recorder of one failed process or
// endpoint: it persists the span-ring tails of ranks from col, the
// generation and the cause, as
// dir/flight-g<gen>-r<lowest rank>.dump. A no-op when dir is empty. Best
// effort — the world is dying, so a failed dump must not mask the solve
// error — and atomic, so a dump that exists always decodes.
func WriteFlightDump(dir string, gen int, ranks []int, col *obs.Collector, cause error) {
	if dir == "" || os.MkdirAll(dir, 0o755) != nil {
		return
	}
	d := col.BuildFlightDump(ranks, int64(gen), cause.Error())
	d.WriteFile(filepath.Join(dir, fmt.Sprintf("flight-g%d-r%d.dump", gen, ranks[0])))
}

// collectFlightDumps lists the dumps in dir once an attempt has failed.
func (st *RecoveryStats) collectFlightDumps(dir string) {
	if dir == "" || len(st.Errors) == 0 {
		return
	}
	// Glob fails only on a malformed pattern (a directory name holding
	// pattern syntax); the dumps are then still on disk, just unlisted.
	st.FlightDumps, _ = filepath.Glob(filepath.Join(dir, "flight-g*.dump"))
}
