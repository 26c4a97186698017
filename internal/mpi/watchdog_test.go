package mpi

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestWatchdogDeadlock: rank 1 calls one fewer Barrier than its peers, so
// ranks 0 and 2 wedge forever. The watchdog must abort the world with a
// DeadlockError naming the stuck op and exactly the lagging rank.
func TestWatchdogDeadlock(t *testing.T) {
	_, err := RunTransport(RunConfig{WatchdogTimeout: 50 * time.Millisecond}, NewInproc(3), func(c *Comm) error {
		c.Barrier()
		if c.Rank() == 1 {
			return nil // skips the second barrier: a classic SPMD bug
		}
		c.Barrier()
		return nil
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlockError, got %T: %v", err, err)
	}
	if de.Op != "barrier" {
		t.Fatalf("stuck op should be barrier, got %q", de.Op)
	}
	if len(de.Missing) != 1 || de.Missing[0] != 1 {
		t.Fatalf("missing ranks should be [1], got %v", de.Missing)
	}
	if len(de.Posted) != 2 || de.Posted[0] != 0 || de.Posted[1] != 2 {
		t.Fatalf("posted ranks should be [0 2], got %v", de.Posted)
	}
}

// TestWatchdogNoFalsePositive: a healthy workload that keeps communicating
// (with compute gaps well under the deadline) must not trip the watchdog.
func TestWatchdogNoFalsePositive(t *testing.T) {
	_, err := RunTransport(RunConfig{WatchdogTimeout: 2 * time.Second}, NewInproc(4), func(c *Comm) error {
		row := c.Split(c.Rank()/2, c.Rank())
		for i := 0; i < 50; i++ {
			c.Allreduce(OpSum, int64(i))
			row.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("healthy run tripped the watchdog: %v", err)
	}
}

// TestNoGoroutineLeakOnRankError is the regression test for the historical
// leak: one rank errors out early while its peers block in the mailbox.
// Before the abort plane, those peers waited forever and every such Run
// leaked size-1 goroutines; now teardown must unblock them all.
func TestNoGoroutineLeakOnRankError(t *testing.T) {
	base := runtime.NumGoroutine()
	boom := errors.New("boom")
	for i := 0; i < 20; i++ {
		_, err := Run(4, func(c *Comm) error {
			if c.Rank() == 0 {
				return boom
			}
			for j := 0; j < 1000; j++ {
				c.Barrier()
				c.Allgatherv([]int64{int64(c.Rank())})
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("iteration %d: want boom, got %v", i, err)
		}
	}
	// Unwinding ranks finish a hair after Run returns only if they were
	// mid-panic; poll briefly rather than assuming instant teardown.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: started with %d, now %d", base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWatchdogLeakFree: after a watchdog abort every rank goroutine exits,
// including the ones that were blocked inside the wedged collective.
func TestWatchdogLeakFree(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		_, err := RunTransport(RunConfig{WatchdogTimeout: 30 * time.Millisecond}, NewInproc(4), func(c *Comm) error {
			if c.Rank() == 2 {
				return nil
			}
			c.Barrier() // rank 2 never joins
			return nil
		})
		var de *DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("iteration %d: want DeadlockError, got %v", i, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: started with %d, now %d", base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
