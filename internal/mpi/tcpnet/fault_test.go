package tcpnet_test

// Network fault-injection tests: the deterministic wire-level failures
// (dropped link, partition, slow link) that the recovery plane is tested
// against. The key property pinned here is reproducibility — the same
// FaultPlan fails the same world at the same frame with the same error
// text on every run — because that is what makes recovery tests debuggable
// and the failure matrix in internal/core meaningful.

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"mcmdist/internal/mpi"
	"mcmdist/internal/mpi/tcpnet"
)

// runFaulted executes exchange over a size-rank loopback world under the
// fault plan f (shared by every endpoint's world) and returns each
// endpoint's RunTransport error. Faulted worlds end dirty, so Close errors
// are ignored.
func runFaulted(t *testing.T, size int, f *mpi.FaultPlan) []error {
	t.Helper()
	return runFaultedProgram(t, size, f, exchange)
}

// runFaultedProgram is runFaulted with an explicit per-rank program.
func runFaultedProgram(t *testing.T, size int, f *mpi.FaultPlan, program func(*mpi.Comm) error) []error {
	t.Helper()
	eps, err := tcpnet.Loopback(size)
	if err != nil {
		t.Fatalf("building faulted loopback world: %v", err)
	}
	errs := make([]error, size)
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep mpi.Transport) {
			defer wg.Done()
			_, errs[i] = mpi.RunTransport(mpi.RunConfig{Faults: f}, ep, program)
		}(i, ep)
	}
	wg.Wait()
	mpi.CloseAll(eps)
	return errs
}

// exchangeTwice runs exchange twice. The second round's collectives need
// every rank's contribution again, so a rank outside a dropped link cannot
// finish before the failure reaches it: the link's far side is stuck in the
// first round and never posts to the second.
func exchangeTwice(c *mpi.Comm) error {
	if err := exchange(c); err != nil {
		return err
	}
	return exchange(c)
}

// injectedFrom picks the endpoint error that carries the injected fault
// sentinel — the failure as the faulting side itself reported it.
func injectedFrom(errs []error) error {
	for _, err := range errs {
		if errors.Is(err, mpi.ErrInjectedNetFault) {
			return err
		}
	}
	return nil
}

// TestDropLinkDeterministic pins the injector's core promise: the same drop
// spec fails the same link at the same data frame with the identical error
// rendering on every execution, and every rank's failure is restartable.
// The drop hits the first exchange's second collective; the program runs a
// second exchange so that rank 0, which is not on the link, still needs
// rank 2's post-drop contribution and cannot finish cleanly.
func TestDropLinkDeterministic(t *testing.T) {
	spec := func() *mpi.FaultPlan {
		return &mpi.FaultPlan{DropFrom: 1, DropTo: 2, DropAtFrame: 2}
	}
	var texts []string
	for run := 0; run < 2; run++ {
		f := spec()
		errs := runFaultedProgram(t, 3, f, exchangeTwice)
		inj := injectedFrom(errs)
		if inj == nil {
			t.Fatalf("run %d: no injected fault surfaced: %v", run, errs)
		}
		if got := f.Fired(); got != 1 {
			t.Fatalf("run %d: %d faults fired, want 1", run, got)
		}
		if !strings.Contains(inj.Error(), "link 1->2 dropped at data frame") {
			t.Fatalf("run %d: injected error names no trigger point: %v", run, inj)
		}
		for i, err := range errs {
			if err == nil {
				t.Fatalf("run %d: endpoint %d survived a dropped link", run, i)
			}
			if !mpi.Restartable(err) {
				t.Fatalf("run %d: endpoint %d error not restartable: %v", run, i, err)
			}
		}
		texts = append(texts, inj.Error())
	}
	if texts[0] != texts[1] {
		t.Fatalf("drop fault not deterministic:\n run 0: %s\n run 1: %s", texts[0], texts[1])
	}
}

// TestPartitionDeterministic pins the same promise for the partition fault:
// the cut fires at a fixed cross-cut frame counted at the partition's lowest
// rank, reproducibly.
func TestPartitionDeterministic(t *testing.T) {
	var texts []string
	for run := 0; run < 2; run++ {
		f := &mpi.FaultPlan{Partition: []int{0, 1}, PartitionAtFrame: 2}
		errs := runFaulted(t, 4, f)
		inj := injectedFrom(errs)
		if inj == nil {
			t.Fatalf("run %d: no injected fault surfaced: %v", run, errs)
		}
		if !strings.Contains(inj.Error(), "partition [0 1] cut at cross frame") {
			t.Fatalf("run %d: injected error names no cut point: %v", run, inj)
		}
		for i, err := range errs {
			if err == nil {
				t.Fatalf("run %d: endpoint %d survived the partition", run, i)
			}
		}
		texts = append(texts, inj.Error())
	}
	if texts[0] != texts[1] {
		t.Fatalf("partition fault not deterministic:\n run 0: %s\n run 1: %s", texts[0], texts[1])
	}
}

// TestSlowLinkPerturbsTimingOnly pins that a slow link is not a failure: the
// workload completes, validates its payloads, fires no fault budget, and
// ships exactly as many frames as a clean run — delay must never change what
// flows, only when.
func TestSlowLinkPerturbsTimingOnly(t *testing.T) {
	const p = 3
	clean := runLoopback(t, mpi.RunConfig{}, p, exchange)
	f := &mpi.FaultPlan{
		Seed: 7, SlowFrom: 0, SlowTo: 1,
		SlowDelay: 200 * time.Microsecond, SlowEvery: 2, SlowJitter: 100 * time.Microsecond,
	}
	eps, err := tcpnet.Loopback(p)
	if err != nil {
		t.Fatalf("building slow loopback world: %v", err)
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep mpi.Transport) {
			defer wg.Done()
			_, errs[i] = mpi.RunTransport(mpi.RunConfig{Faults: f}, ep, exchange)
		}(i, ep)
	}
	wg.Wait()
	slow := make([]tcpnet.WireStats, p)
	for i, ep := range eps {
		slow[i] = ep.(*tcpnet.Net).WireStats()
	}
	if err := mpi.CloseAll(eps); err != nil {
		t.Errorf("closing slow world: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("endpoint %d failed under a slow link: %v", i, err)
		}
	}
	if f.Fired() != 0 {
		t.Fatalf("slow link consumed %d of the terminal fault budget", f.Fired())
	}
	for i := range clean {
		if clean[i].Frames != slow[i].Frames {
			t.Fatalf("endpoint %d framed %d slow vs %d clean — delay changed the traffic",
				i, slow[i].Frames, clean[i].Frames)
		}
	}
}

// TestFaultBudgetSpansWorlds pins the retry contract: one spec shared across
// consecutive worlds (as SolveRecoverable shares it across attempts) faults
// the first world, exhausts its MaxFires budget, and lets the next world run
// clean end to end.
func TestFaultBudgetSpansWorlds(t *testing.T) {
	f := &mpi.FaultPlan{DropFrom: 0, DropTo: 1, DropAtFrame: 1}
	errs := runFaulted(t, 3, f)
	if injectedFrom(errs) == nil {
		t.Fatalf("first world did not observe the injected drop: %v", errs)
	}
	if f.Fired() != 1 {
		t.Fatalf("budget after first world: %d fired, want 1", f.Fired())
	}
	errs = runFaulted(t, 3, f)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("second world endpoint %d failed with the budget spent: %v", i, err)
		}
	}
	if f.Fired() != 1 {
		t.Fatalf("budget after second world: %d fired, want still 1", f.Fired())
	}
}
