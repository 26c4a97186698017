package mpi

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"mcmdist/internal/obs"
)

// Injected fault sentinels. Errors returned from a faulted Run wrap one of
// these, so callers distinguish injected faults (retryable by design) from
// genuine algorithm errors with errors.Is.
var (
	// ErrInjectedCrash marks a rank killed by FaultPlan.CrashAtCollective.
	ErrInjectedCrash = errors.New("mpi: injected rank crash")
	// ErrInjectedRMAFailure marks an RMA op failed by FaultPlan.RMAFailAt.
	ErrInjectedRMAFailure = errors.New("mpi: injected rma failure")
)

// RankError is an error that occurred on (or was attributed to) one rank of
// a world: a contained panic, an injected fault, or an abort unwinding. Run
// recovers every rank panic into a RankError instead of crashing the
// process, so one bad rank cannot take down an embedding server.
type RankError struct {
	Rank  int    // world rank the error occurred on
	Op    string // operation during which it occurred ("barrier", "rma-put", "panic", "abort", ...)
	Err   error  // underlying cause
	Stack []byte // goroutine stack at recovery, for contained panics
}

// Error formats the rank, op and cause.
func (e *RankError) Error() string {
	return fmt.Sprintf("mpi: rank %d failed in %s: %v", e.Rank, e.Op, e.Err)
}

// Unwrap returns the underlying cause for errors.Is / errors.As.
func (e *RankError) Unwrap() error { return e.Err }

// FaultPlan is a deterministic, seeded fault injector configured per Run.
// The zero value injects nothing. Faults trigger at fixed points in each
// rank's own operation stream (its Nth collective entry, Nth RMA op), so a
// given plan reproduces the same failure on every execution of the same
// program — faults are part of the simulation, not noise.
//
// Terminal faults (crash, RMA failure) draw from a shared budget of MaxFires
// (default 1). The budget spans every world the plan is attached to, which
// is what makes checkpoint/restart testable: the first attempt faults, the
// budget is exhausted, and the retry runs clean.
type FaultPlan struct {
	// Seed drives the straggler jitter; unrelated plans with different
	// seeds delay differently, same seed reproduces exactly.
	Seed int64

	// CrashRank dies with ErrInjectedCrash upon entering its
	// CrashAtCollective-th collective (1-based, counted per rank across
	// all communicators including Barrier/Split/WinCreate). Zero disables.
	CrashRank         int
	CrashAtCollective int // 1-based; zero disables the crash

	// StragglerRank sleeps StragglerDelay (plus seeded jitter up to
	// StragglerJitter) on entry to every StragglerEvery-th collective
	// (default every one). Zero delay disables. Stragglers perturb timing
	// only — results stay bit-identical — and never consume MaxFires.
	StragglerRank   int
	StragglerDelay  time.Duration // zero disables the straggler
	StragglerEvery  int           // delay every Nth collective; zero means 1
	StragglerJitter time.Duration // seeded extra delay, up to this much

	// RMAFailRank dies with ErrInjectedRMAFailure on its RMAFailAt-th
	// one-sided op (1-based, per rank). Zero disables.
	RMAFailRank int
	RMAFailAt   int // 1-based; zero disables the failure

	// MaxFires bounds how many terminal faults (crash + RMA) the plan
	// injects in total, across all worlds sharing it. Zero means 1.
	MaxFires int

	fired atomic.Int64
}

// Fired returns how many terminal faults the plan has injected so far.
func (f *FaultPlan) Fired() int { return int(f.fired.Load()) }

// fire consumes one unit of the terminal-fault budget, returning false once
// MaxFires is exhausted.
func (f *FaultPlan) fire() bool {
	limit := int64(f.MaxFires)
	if limit <= 0 {
		limit = 1
	}
	for {
		cur := f.fired.Load()
		if cur >= limit {
			return false
		}
		if f.fired.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// onCollective runs the fault checks for one rank entering its n-th
// collective (n is 1-based). It panics with a *RankError for a crash; the
// panic is contained by RunTransport. Fired faults leave an instant on the
// rank's trace (tr may be nil) so injected failures are visible in the
// merged timeline.
func (f *FaultPlan) onCollective(rank int, op string, n int64, tr *obs.Tracer) {
	if f.CrashAtCollective > 0 && rank == f.CrashRank && n == int64(f.CrashAtCollective) && f.fire() {
		tr.Instant("fault.crash", n)
		panic(&RankError{Rank: rank, Op: op, Err: ErrInjectedCrash})
	}
	if f.StragglerDelay > 0 && rank == f.StragglerRank {
		every := f.StragglerEvery
		if every <= 0 {
			every = 1
		}
		if n%int64(every) == 0 {
			d := f.StragglerDelay
			if f.StragglerJitter > 0 {
				d += time.Duration(splitmix64(uint64(f.Seed)^uint64(rank)<<40^uint64(n)) % uint64(f.StragglerJitter))
			}
			tr.Instant("fault.straggler", int64(d))
			time.Sleep(d)
		}
	}
}

// onRMA runs the fault checks for one rank entering its n-th one-sided op.
func (f *FaultPlan) onRMA(rank int, op string, n int64, tr *obs.Tracer) {
	if f.RMAFailAt > 0 && rank == f.RMAFailRank && n == int64(f.RMAFailAt) && f.fire() {
		tr.Instant("fault.rma", n)
		panic(&RankError{Rank: rank, Op: op, Err: ErrInjectedRMAFailure})
	}
}

// splitmix64 is the SplitMix64 mixer, used to derive deterministic straggler
// jitter from (seed, rank, op index).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// enterCollective is the per-rank gate at the top of start, every
// collective's entry point. It unwinds the rank if the world has been
// aborted, then runs fault injection.
func (c *Comm) enterCollective(op string) {
	w := c.st.world
	if w == nil {
		return
	}
	if w.aborted.Load() {
		panic(abortSignal{cause: w.abortReason()})
	}
	if f := w.faults; f != nil {
		n := w.faultColl[c.worldRank].Add(1)
		f.onCollective(c.worldRank, op, n, c.tracer())
	}
}

// enterRMA is enterCollective for one-sided ops. RMA ops bump the world's
// progress counter so a long path-parallel augmentation epoch (which is all
// RMA, no collectives) is not mistaken for a hang by the watchdog.
func (w *Win) enterRMA(op string) {
	world := w.comm.st.world
	if world == nil {
		return
	}
	if world.aborted.Load() {
		panic(abortSignal{cause: world.abortReason()})
	}
	world.progress.Add(1)
	if f := world.faults; f != nil {
		n := world.faultRMA[w.comm.worldRank].Add(1)
		f.onRMA(w.comm.worldRank, op, n, w.comm.tracer())
	}
}
