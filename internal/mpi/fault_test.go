package mpi

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestPanicContainment: a rank panic becomes a *RankError naming the rank,
// the process survives, and the sibling ranks (blocked in a Barrier the
// panicking rank never joins) unwind instead of leaking.
func TestPanicContainment(t *testing.T) {
	_, err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			panic("kaboom")
		}
		c.Barrier()
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("want *RankError, got %T: %v", err, err)
	}
	if re.Rank != 2 || re.Op != "panic" {
		t.Fatalf("want rank 2 op panic, got rank %d op %q", re.Rank, re.Op)
	}
	if len(re.Stack) == 0 {
		t.Fatal("contained panic should capture a stack")
	}
}

// TestInjectedCrash: the configured rank dies at exactly its Nth collective,
// the error wraps ErrInjectedCrash, and peers unwind via the abort path.
func TestInjectedCrash(t *testing.T) {
	plan := &FaultPlan{CrashRank: 1, CrashAtCollective: 3}
	counts := make([]int, 4)
	_, err := RunTransport(RunConfig{Faults: plan}, NewInproc(4), func(c *Comm) error {
		for i := 0; i < 10; i++ {
			c.Barrier()
			counts[c.Rank()]++
		}
		return nil
	})
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("want ErrInjectedCrash, got %v", err)
	}
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 {
		t.Fatalf("crash should be attributed to rank 1, got %v", err)
	}
	if counts[1] != 2 {
		t.Fatalf("rank 1 should complete exactly 2 barriers before dying at its 3rd, completed %d", counts[1])
	}
	if plan.Fired() != 1 {
		t.Fatalf("plan should have fired once, fired %d", plan.Fired())
	}
}

// TestCrashBudgetExhausted: once MaxFires is spent, the same plan injects
// nothing — the property the checkpoint/restart retry loop builds on.
func TestCrashBudgetExhausted(t *testing.T) {
	plan := &FaultPlan{CrashRank: 0, CrashAtCollective: 1}
	if _, err := RunTransport(RunConfig{Faults: plan}, NewInproc(2), func(c *Comm) error {
		c.Barrier()
		return nil
	}); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("first run should crash, got %v", err)
	}
	if _, err := RunTransport(RunConfig{Faults: plan}, NewInproc(2), func(c *Comm) error {
		c.Barrier()
		return nil
	}); err != nil {
		t.Fatalf("budget exhausted, second run should be clean, got %v", err)
	}
}

// TestStraggler: injected latency perturbs timing only — the collective
// results stay bit-identical to a clean run, and no error surfaces.
func TestStraggler(t *testing.T) {
	run := func(plan *FaultPlan) ([][]int64, error) {
		out := make([][]int64, 4)
		_, err := RunTransport(RunConfig{Faults: plan}, NewInproc(4), func(c *Comm) error {
			data := []int64{int64(c.Rank()) * 10, int64(c.Rank())*10 + 1}
			flat := c.AllgathervInto(data, nil)
			sum := c.Allreduce(OpSum, int64(c.Rank()))
			out[c.Rank()] = append(flat, sum)
			return nil
		})
		return out, err
	}
	clean, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := run(&FaultPlan{Seed: 7, StragglerRank: 2, StragglerDelay: time.Millisecond, StragglerJitter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for r := range clean {
		if fmt.Sprint(clean[r]) != fmt.Sprint(slow[r]) {
			t.Fatalf("rank %d: straggler changed results: %v vs %v", r, clean[r], slow[r])
		}
	}
}

// TestInjectedRMAFailure: the configured rank dies on its Nth one-sided op
// with ErrInjectedRMAFailure.
func TestInjectedRMAFailure(t *testing.T) {
	plan := &FaultPlan{RMAFailRank: 1, RMAFailAt: 2}
	_, err := RunTransport(RunConfig{Faults: plan}, NewInproc(2), func(c *Comm) error {
		local := make([]int64, 4)
		win := WinCreate(c, local)
		for i := 0; i < 4; i++ {
			win.Put1((c.Rank()+1)%2, i, int64(c.Rank()))
		}
		win.Fence()
		return nil
	})
	if !errors.Is(err, ErrInjectedRMAFailure) {
		t.Fatalf("want ErrInjectedRMAFailure, got %v", err)
	}
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 || re.Op != "rma-put" {
		t.Fatalf("want rank 1 rma-put, got %v", err)
	}
}

// TestRankErrorReturnedFirst: a plain returned error aborts the world, peers
// unwind, and Run reports the original error (not the abort unwindings).
func TestRankErrorReturnedFirst(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(4, func(c *Comm) error {
		if c.Rank() == 3 {
			return boom
		}
		for i := 0; i < 100; i++ {
			c.Barrier()
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want the rank's own error, got %v", err)
	}
	if isAbortDerived(err) {
		t.Fatalf("returned error should not be an abort unwinding: %v", err)
	}
}
