package mpi

import (
	"errors"
	"fmt"
	"slices"
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

// FaultPlan is the deterministic, seeded fault injector of a world: rank
// faults (crash, straggler, RMA failure) and, on backends with a wire, link
// faults (drop, partition, slow link). The zero value injects nothing. It is
// attached once, through RunConfig.Faults, and a multi-process backend reads
// it from its bound world (World.Faults). Faults trigger at fixed points in
// each rank's own operation stream — its Nth collective entry, its Nth RMA
// op, the Nth data frame it ships on a link — so a given plan reproduces the
// same failure on every execution of the same program: faults are part of
// the simulation, not noise.
//
// Only data frames the rank's own goroutine initiates (POSTs and RMA
// requests) count toward the link triggers; reactive traffic (RMA
// responses) and control traffic (heartbeats, aborts, byes, bootstrap) is
// exempt, because its interleaving is timer- or peer-driven and counting it
// would make the trigger point racy.
//
// Terminal faults (crash, RMA failure, drop, partition) draw from one
// shared budget of MaxFires (default 1). The budget spans every world the
// plan is attached to, which is what makes checkpoint/restart testable: the
// first attempt faults, the budget is exhausted, and the retry runs clean.
type FaultPlan struct {
	// Seed drives the straggler and slow-link jitter; unrelated plans with
	// different seeds delay differently, same seed reproduces exactly.
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

	// DropFrom/DropTo sever that directed link when the sender is about to
	// ship its DropAtFrame-th data frame on it (1-based). The sender's world
	// aborts with ErrInjectedNetFault naming the link and frame; the receiver
	// observes the closed connection as a PeerDownError.
	DropFrom, DropTo int
	DropAtFrame      int // 1-based; zero disables the drop

	// Partition severs every link between the Partition rank set and its
	// complement. The cut is enacted deterministically at the lowest rank of
	// the set: when that sender is about to ship its PartitionAtFrame-th
	// cross-cut data frame (1-based), it closes all of its cross-cut links
	// and aborts with ErrInjectedNetFault.
	Partition        []int
	PartitionAtFrame int // 1-based; zero disables the partition

	// SlowFrom/SlowTo delay every SlowEvery-th data frame (default every
	// one) on that directed link by SlowDelay plus seeded jitter up to
	// SlowJitter. Timing only — results stay bit-identical — and never
	// consumes MaxFires.
	SlowFrom, SlowTo int
	SlowDelay        time.Duration // zero disables the slow link
	SlowEvery        int           // delay every Nth frame; zero means 1
	SlowJitter       time.Duration // seeded extra delay, up to this much

	// MaxFires bounds how many terminal faults (crash, RMA failure, drop,
	// partition) the plan injects in total, across all worlds sharing it.
	// Zero means 1.
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

// seededDelay is base plus seeded jitter below jitter (none when jitter is
// not positive); key is what the delay belongs to, mixed with the seed.
func (f *FaultPlan) seededDelay(base, jitter time.Duration, key uint64) time.Duration {
	if jitter > 0 {
		base += time.Duration(splitmix64(uint64(f.Seed)^key) % uint64(jitter))
	}
	return base
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
			d := f.seededDelay(f.StragglerDelay, f.StragglerJitter, uint64(rank)<<40^uint64(n))
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

// DropsLink reports whether the sender's n-th data frame on the directed
// link from→to severs it, consuming budget when it does.
func (f *FaultPlan) DropsLink(from, to int, n int64) bool {
	return f.DropAtFrame > 0 && from == f.DropFrom && to == f.DropTo &&
		n == int64(f.DropAtFrame) && f.fire()
}

// PartitionSender returns the rank that enacts the partition cut (the lowest
// rank of the set), or -1 when no partition is configured.
func (f *FaultPlan) PartitionSender() int {
	if f.PartitionAtFrame <= 0 || len(f.Partition) == 0 {
		return -1
	}
	return slices.Min(f.Partition)
}

// InPartition reports whether rank is in the configured partition set.
func (f *FaultPlan) InPartition(rank int) bool { return slices.Contains(f.Partition, rank) }

// CrossesCut reports whether the directed link from→to crosses the
// partition cut.
func (f *FaultPlan) CrossesCut(from, to int) bool {
	if len(f.Partition) == 0 {
		return false
	}
	return f.InPartition(from) != f.InPartition(to)
}

// DropsCut reports whether the enacting sender's n-th cross-cut data frame
// triggers the partition, consuming budget when it does. Callers must only
// count cross-cut frames at PartitionSender().
func (f *FaultPlan) DropsCut(n int64) bool {
	return f.PartitionAtFrame > 0 && n == int64(f.PartitionAtFrame) && f.fire()
}

// Delay returns the injected latency for the sender's n-th data frame on
// the directed link from→to (zero for none). Deterministic in (plan, link,
// n); never consumes budget.
func (f *FaultPlan) Delay(from, to int, n int64) time.Duration {
	if f.SlowDelay <= 0 || from != f.SlowFrom || to != f.SlowTo {
		return 0
	}
	every := f.SlowEvery
	if every <= 0 {
		every = 1
	}
	if n%int64(every) != 0 {
		return 0
	}
	return f.seededDelay(f.SlowDelay, f.SlowJitter, uint64(from)<<40^uint64(to)<<20^uint64(n))
}

// splitmix64 is the SplitMix64 mixer, used to derive deterministic straggler
// and slow-link jitter from the seed and the rank or link and op index.
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
