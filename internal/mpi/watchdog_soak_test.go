//go:build faultsoak

package mpi

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestSoakWatchdogChaos is the nightly-style long test (enable with
// -tags faultsoak): hundreds of worlds with randomized-but-seeded crash
// points, stragglers, and genuine wedges, checking that every failure
// surfaces as a typed error, no world hangs, and no goroutines leak.
func TestSoakWatchdogChaos(t *testing.T) {
	base := runtime.NumGoroutine()
	for iter := 0; iter < 300; iter++ {
		seed := int64(iter)
		mode := iter % 3
		var cfg RunConfig
		switch mode {
		case 0: // injected crash somewhere in the collective stream
			cfg.Faults = &FaultPlan{Seed: seed, CrashRank: iter % 4, CrashAtCollective: 1 + iter%40}
		case 1: // straggler plus tight-but-sufficient watchdog
			cfg.Faults = &FaultPlan{Seed: seed, StragglerRank: iter % 4, StragglerDelay: 200 * time.Microsecond, StragglerEvery: 3}
			cfg.WatchdogTimeout = 2 * time.Second
		case 2: // genuine wedge: one rank drops out of the loop early
			cfg.WatchdogTimeout = 50 * time.Millisecond
		}
		_, err := RunTransport(cfg, NewInproc(4), func(c *Comm) error {
			row := c.Split(c.Rank()/2, c.Rank())
			rounds := 20
			if mode == 2 && c.Rank() == (iter+1)%4 {
				rounds = 10 // skips the tail: peers wedge, watchdog must fire
			}
			for i := 0; i < rounds; i++ {
				c.Allreduce(OpSum, int64(i))
				row.Allgatherv([]int64{int64(c.Rank())})
				c.Barrier()
			}
			return nil
		})
		switch mode {
		case 0:
			if !errors.Is(err, ErrInjectedCrash) {
				t.Fatalf("iter %d: want injected crash, got %v", iter, err)
			}
		case 1:
			if err != nil {
				t.Fatalf("iter %d: straggler run must stay clean, got %v", iter, err)
			}
		case 2:
			var de *DeadlockError
			if !errors.As(err, &de) {
				t.Fatalf("iter %d: want DeadlockError, got %v", iter, err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base+4 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: started with %d, now %d", base, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
