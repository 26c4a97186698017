package tcpnet_test

// Loopback integration tests for the transport-level concerns the
// conformance suite deliberately abstracts away: the bytes actually written
// to the sockets (compression must shrink them) and the write-plane counters
// (aggregation can only reduce syscalls, never lose frames).

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"mcmdist/internal/mpi"
	"mcmdist/internal/mpi/tcpnet"
)

// runLoopback executes fn over a size-rank loopback TCP world and returns
// the per-endpoint wire stats plus each rank's world.
func runLoopback(t *testing.T, cfg mpi.RunConfig, size int, fn func(c *mpi.Comm) error) []tcpnet.WireStats {
	t.Helper()
	eps, err := tcpnet.Loopback(size)
	if err != nil {
		t.Fatalf("building tcp endpoints: %v", err)
	}
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep mpi.Transport) {
			defer wg.Done()
			_, errs[i] = mpi.RunTransport(cfg, ep, fn)
		}(i, ep)
	}
	wg.Wait()
	stats := make([]tcpnet.WireStats, len(eps))
	for i, ep := range eps {
		n, ok := ep.(*tcpnet.Net)
		if !ok {
			t.Fatalf("endpoint %d is %T, not *tcpnet.Net", i, ep)
		}
		stats[i] = n.WireStats()
	}
	if err := mpi.CloseAll(eps); err != nil {
		t.Errorf("closing endpoints: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("endpoint %d: %v", i, err)
		}
	}
	return stats
}

// TestRetiredCompareAndSwapOpRefused: an RMA request carrying op 3, the
// retired compare-and-swap, reaches a live window on the peer and comes
// back as an error, never a panic and never a served value. A fetch-and-op
// on the same window id is served, so the refusal is the op code's and not
// a missing window's.
func TestRetiredCompareAndSwapOpRefused(t *testing.T) {
	eps, err := tcpnet.Loopback(2)
	if err != nil {
		t.Fatalf("building tcp endpoints: %v", err)
	}
	const winID = "world/win@0" // a fresh world's first collective is the WinCreate
	var casResp *mpi.RMAResp
	var casErr, faoErr error
	var fao *mpi.RMAResp
	owner := []int64{20}
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep mpi.Transport) {
			defer wg.Done()
			_, errs[i] = mpi.RunTransport(mpi.RunConfig{}, ep, func(c *mpi.Comm) error {
				local := []int64{10}
				if c.Rank() == 1 {
					local = owner
				}
				win := mpi.WinCreate(c, local)
				if c.Rank() == 0 {
					casResp, casErr = ep.RMA(1, &mpi.RMAReq{Win: winID, Member: 1, Op: 3})
					fao, faoErr = ep.RMA(1, &mpi.RMAReq{Win: winID, Member: 1, Op: mpi.RMAFetchAndOp, Code: mpi.OpCodeSum, Operand: 0})
				}
				win.Fence()
				return nil
			})
		}(i, ep)
	}
	wg.Wait()
	if err := mpi.CloseAll(eps); err != nil {
		t.Errorf("closing endpoints: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("endpoint %d: %v", i, err)
		}
	}
	if faoErr != nil || fao == nil || fao.Old != 20 {
		t.Fatalf("fetch-and-op on %s: resp %+v, err %v; want old value 20", winID, fao, faoErr)
	}
	if casResp != nil || casErr == nil || !strings.Contains(casErr.Error(), "unknown rma op 3") {
		t.Fatalf("retired op 3: resp %+v, err %v; want an unknown-op error and no value", casResp, casErr)
	}
	if owner[0] != 20 {
		t.Fatalf("owner's element is %d after the refused op, want 20", owner[0])
	}
}

// exchange is the shared workload: id-stream-shaped (sorted, small-delta)
// payloads through both mailbox collectives, the traffic compression is for.
func exchange(c *mpi.Comm) error {
	p := c.Size()
	ids := make([]int64, 4096)
	for i := range ids {
		ids[i] = int64(c.Rank()) + int64(i)*3
	}
	got := c.Allgatherv(ids)
	for s := 0; s < p; s++ {
		if len(got[s]) != len(ids) || got[s][1] != int64(s)+3 {
			return fmt.Errorf("rank %d: bad allgather part from %d: %v...", c.Rank(), s, got[s][:2])
		}
	}
	parts := make([][]int64, p)
	for d := range parts {
		parts[d] = ids[:1024]
	}
	recv := c.Alltoallv(parts)
	for s := 0; s < p; s++ {
		if len(recv[s]) != 1024 || recv[s][0] != int64(s) {
			return fmt.Errorf("rank %d: bad alltoall part from %d", c.Rank(), s)
		}
	}
	return nil
}

// TestCompressionShrinksWireBytes pins the point of the codec: the same
// program with Compress on writes at least 2x fewer bytes to the sockets.
func TestCompressionShrinksWireBytes(t *testing.T) {
	const p = 4
	sum := func(stats []tcpnet.WireStats) (bytes int64) {
		for _, s := range stats {
			bytes += s.Bytes
		}
		return
	}
	raw := sum(runLoopback(t, mpi.RunConfig{}, p, exchange))
	enc := sum(runLoopback(t, mpi.RunConfig{Compress: true}, p, exchange))
	if raw <= 0 || enc <= 0 {
		t.Fatalf("no wire traffic recorded: raw=%d enc=%d", raw, enc)
	}
	if 2*enc >= raw {
		t.Fatalf("compression shrank wire bytes only %d -> %d (< 2x)", raw, enc)
	}
}

// TestWireStatsAccounting pins the write-plane invariants: every endpoint
// framed exactly one POST per remote member per mailbox collective — no
// read-retirement traffic — aggregation never writes more often than it
// frames, and the counters are internally consistent (no bytes without
// writes).
func TestWireStatsAccounting(t *testing.T) {
	const p, k = 4, 2 // exchange runs two mailbox collectives
	for _, stats := range [][]tcpnet.WireStats{
		runLoopback(t, mpi.RunConfig{}, p, exchange),
		runLoopback(t, mpi.RunConfig{Compress: true}, p, exchange),
	} {
		for i, s := range stats {
			if s.Frames <= 0 || s.Writes <= 0 || s.Bytes <= 0 {
				t.Fatalf("endpoint %d: empty wire stats %+v", i, s)
			}
			want := int64(k * (p - 1))
			if i == 0 {
				want += p - 1 // the coordinator's bootstrap ROSTER to each peer
			}
			if s.Frames != want {
				t.Fatalf("endpoint %d: framed %d, want %d for %d collectives on %d ranks", i, s.Frames, want, k, p)
			}
			if s.Writes > s.Frames {
				t.Fatalf("endpoint %d: %d writes for %d frames — aggregation added writes", i, s.Writes, s.Frames)
			}
		}
	}
}
