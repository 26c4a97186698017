package mpi

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrInjectedNetFault marks a world killed by a NetFaultSpec drop or
// partition. Like the FaultPlan sentinels, it lets callers distinguish an
// injected network failure (retryable by design) from a genuine algorithm
// error with errors.Is.
var ErrInjectedNetFault = errors.New("mpi: injected network fault")

// PeerDownError reports that the process hosting a peer rank died or became
// unreachable: its connection returned EOF/reset (Op "read"), a write to it
// failed (Op "write"), or it went silent past the heartbeat deadline
// (Op "heartbeat"). A multi-process backend aborts the world with one, so
// every mailbox waiter wakes immediately instead of stalling into the
// watchdog; the retry plane treats it as restartable.
type PeerDownError struct {
	// Rank is the world rank of the dead peer.
	Rank int
	// Op is how the death was observed: "read", "write" or "heartbeat".
	Op string
	// Err is the underlying cause (io.EOF, a syscall error, a deadline).
	Err error
}

// Error formats the dead rank and how its death was observed.
func (e *PeerDownError) Error() string {
	return fmt.Sprintf("mpi: peer rank %d down (%s): %v", e.Rank, e.Op, e.Err)
}

// Unwrap returns the underlying cause for errors.Is / errors.As.
func (e *PeerDownError) Unwrap() error { return e.Err }

// NetFaultSpec is the network half of the fault plane: a deterministic,
// seeded injector of link failures for multi-process backends, mirroring
// FaultPlan's discipline. Faults trigger at fixed points in each sender's
// own data-frame stream — the Nth POST or RMA-request frame it ships on a
// link — so a given spec reproduces the same failure at the same point on
// every execution of the same program. The zero value injects nothing.
//
// Only frames the rank's own goroutine initiates (POSTs and RMA requests)
// count toward the triggers; reactive traffic (RMA responses) and control
// traffic (heartbeats, aborts, byes, bootstrap) is exempt, because its
// interleaving is timer- or peer-driven and counting it would make the
// trigger point racy.
//
// Terminal faults (drop, partition) draw from a shared budget of MaxFires
// (default 1) spanning every world the spec is attached to — the first
// generation faults, the budget is exhausted, and the restarted generation
// runs clean, exactly like FaultPlan's crash budget.
type NetFaultSpec struct {
	// Seed drives the slow-link jitter; same seed, same delays.
	Seed int64

	// DropFrom/DropTo sever that directed link when the sender is about to
	// ship its DropAtFrame-th data frame on it (1-based). The sender's world
	// aborts with ErrInjectedNetFault naming the link and frame; the receiver
	// observes the closed connection as a PeerDownError. DropAtFrame 0
	// disables.
	DropFrom, DropTo int
	DropAtFrame      int // 1-based; zero disables the drop

	// Partition severs every link between the Partition rank set and its
	// complement. The cut is enacted deterministically at the lowest rank of
	// the set: when that sender is about to ship its PartitionAtFrame-th
	// cross-cut data frame (1-based), it closes all of its cross-cut links
	// and aborts with ErrInjectedNetFault. PartitionAtFrame 0 disables.
	Partition        []int
	PartitionAtFrame int // 1-based; zero disables the partition

	// SlowFrom/SlowTo delay every SlowEvery-th data frame (default every
	// one) on that directed link by SlowDelay plus seeded jitter up to
	// SlowJitter. Timing only — results stay bit-identical — and never
	// consumes MaxFires. SlowDelay 0 disables.
	SlowFrom, SlowTo int
	SlowDelay        time.Duration // zero disables the slow link
	SlowEvery        int           // delay every Nth frame; zero means 1
	SlowJitter       time.Duration // seeded extra delay, up to this much

	// MaxFires bounds how many terminal faults (drop + partition) the spec
	// injects in total, across all worlds sharing it. Zero means 1.
	MaxFires int

	fired atomic.Int64
}

// Fired returns how many terminal faults the spec has injected so far.
func (f *NetFaultSpec) Fired() int { return int(f.fired.Load()) }

// fire consumes one unit of the terminal-fault budget, returning false once
// MaxFires is exhausted.
func (f *NetFaultSpec) fire() bool {
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

// DropsLink reports whether the sender's n-th data frame on the directed
// link from→to severs it, consuming budget when it does.
func (f *NetFaultSpec) DropsLink(from, to int, n int64) bool {
	return f.DropAtFrame > 0 && from == f.DropFrom && to == f.DropTo &&
		n == int64(f.DropAtFrame) && f.fire()
}

// PartitionSender returns the rank that enacts the partition cut (the lowest
// rank of the set), or -1 when no partition is configured.
func (f *NetFaultSpec) PartitionSender() int {
	if f.PartitionAtFrame <= 0 || len(f.Partition) == 0 {
		return -1
	}
	min := f.Partition[0]
	for _, r := range f.Partition[1:] {
		if r < min {
			min = r
		}
	}
	return min
}

// InPartition reports whether rank is in the configured partition set.
func (f *NetFaultSpec) InPartition(rank int) bool {
	for _, r := range f.Partition {
		if r == rank {
			return true
		}
	}
	return false
}

// CrossesCut reports whether the directed link from→to crosses the
// partition cut.
func (f *NetFaultSpec) CrossesCut(from, to int) bool {
	if len(f.Partition) == 0 {
		return false
	}
	return f.InPartition(from) != f.InPartition(to)
}

// DropsCut reports whether the enacting sender's n-th cross-cut data frame
// triggers the partition, consuming budget when it does. Callers must only
// count cross-cut frames at PartitionSender().
func (f *NetFaultSpec) DropsCut(n int64) bool {
	return f.PartitionAtFrame > 0 && n == int64(f.PartitionAtFrame) && f.fire()
}

// Delay returns the injected latency for the sender's n-th data frame on
// the directed link from→to (zero for none). Deterministic in (spec, link,
// n); never consumes budget.
func (f *NetFaultSpec) Delay(from, to int, n int64) time.Duration {
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
	d := f.SlowDelay
	if f.SlowJitter > 0 {
		d += time.Duration(splitmix64(uint64(f.Seed)^uint64(from)<<40^uint64(to)<<20^uint64(n)) % uint64(f.SlowJitter))
	}
	return d
}

// Restartable reports whether err is the kind of failure a supervisor should
// retry with a fresh world generation: an injected or genuine transport
// fault, a dead peer, a watchdog deadlock, a remote abort, or a rank that
// merely unwound from one of those. Genuine algorithm errors and contained
// rank panics are not restartable — restarting would reproduce them.
func Restartable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrInjectedCrash) || errors.Is(err, ErrInjectedRMAFailure) || errors.Is(err, ErrInjectedNetFault) {
		return true
	}
	var pd *PeerDownError
	var te *TransportError
	var ra *RemoteAbortError
	var de *DeadlockError
	if errors.As(err, &pd) || errors.As(err, &te) || errors.As(err, &ra) || errors.As(err, &de) {
		return true
	}
	// A rank unwound by a world abort: the cause (possibly remote) is what
	// failed, and it already passed through Abort — restartable.
	var re *RankError
	if errors.As(err, &re) && re.Op == "abort" {
		return true
	}
	return false
}
