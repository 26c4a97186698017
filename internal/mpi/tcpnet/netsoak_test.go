//go:build faultsoak

package tcpnet_test

// Nightly network-chaos soak for the tcp backend: many loopback worlds in a
// row cycling through the network fault plans (dropped link, partition, slow
// link, clean), with typed-error assertions per mode and a goroutine-leak
// check at the end. This is the wire-level sibling of the in-process
// watchdog soak in internal/mpi — run with `make soak` (faultsoak tag).

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"mcmdist/internal/mpi"
)

// TestSoakNetFaultChaos cycles loopback TCP worlds through the fault modes.
// Every iteration builds a fresh injector with trigger points derived from
// the iteration index, so the faults land on different frames each cycle
// while staying fully deterministic for a given run count.
func TestSoakNetFaultChaos(t *testing.T) {
	const iters = 80
	baseline := runtime.NumGoroutine()

	for i := 0; i < iters; i++ {
		size := 3 + i%2 // alternate 3- and 4-rank worlds
		var f *mpi.FaultPlan
		mode := i % 4
		switch mode {
		case 0: // dropped link, rotating endpoints and trigger frame
			f = &mpi.FaultPlan{
				DropFrom: i % size, DropTo: (i + 1) % size, DropAtFrame: 1 + i%3,
			}
		case 1: // partition splitting off the low ranks
			f = &mpi.FaultPlan{
				Partition: []int{0, 1}, PartitionAtFrame: 1 + i%3,
			}
		case 2: // slow link: timing perturbation only, must still succeed
			f = &mpi.FaultPlan{
				Seed: int64(i), SlowFrom: i % size, SlowTo: (i + 1) % size,
				SlowDelay: 50 * time.Microsecond, SlowEvery: 2,
				SlowJitter: 25 * time.Microsecond,
			}
		case 3: // clean control world
		}

		// One exchange is two mailbox collectives, so it frames only two
		// POSTs per link; two exchanges put every trigger frame (1–3)
		// inside each link's data-frame stream.
		errs := runFaultedProgram(t, size, f, exchangeTwice)

		terminal := mode == 0 || mode == 1
		if terminal {
			inj := injectedFrom(errs)
			if inj == nil {
				t.Fatalf("iter %d (mode %d): no injected fault surfaced: %v", i, mode, errs)
			}
			if got := f.Fired(); got != 1 {
				t.Fatalf("iter %d (mode %d): %d faults fired, want 1", i, mode, got)
			}
			for rank, err := range errs {
				if err == nil {
					t.Fatalf("iter %d (mode %d): endpoint %d survived the fault", i, mode, rank)
				}
				if !mpi.Restartable(err) {
					t.Fatalf("iter %d (mode %d): endpoint %d error not restartable: %v", i, mode, rank, err)
				}
				// Every failure must be typed — either the injected sentinel
				// itself or one of the transport-plane error types the
				// recovery engine dispatches on.
				var pd *mpi.PeerDownError
				var ra *mpi.RemoteAbortError
				var te *mpi.TransportError
				if !errors.Is(err, mpi.ErrInjectedNetFault) &&
					!errors.As(err, &pd) && !errors.As(err, &ra) && !errors.As(err, &te) {
					t.Fatalf("iter %d (mode %d): endpoint %d died with an untyped error: %v", i, mode, rank, err)
				}
			}
		} else {
			for rank, err := range errs {
				if err != nil {
					t.Fatalf("iter %d (mode %d): endpoint %d failed a survivable world: %v", i, mode, rank, err)
				}
			}
			if f != nil && f.Fired() != 0 {
				t.Fatalf("iter %d: timing-only injector reported %d terminal fires", i, f.Fired())
			}
		}
	}

	// Every world torn down: the soak must not leak read loops, flushers, or
	// heartbeat monitors. Allow a grace period for the last teardowns.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after %d worlds: baseline %d, now %d\n%s",
				iters, baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
