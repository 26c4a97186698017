package tcpnet

// Failure-detector and teardown-bound tests, built on hand-assembled
// endpoints over net.Pipe: a pipe gives us the one thing a loopback world
// cannot — a peer that is connected but perfectly silent (nothing reads,
// nothing writes, the socket never closes), which is exactly how a SIGSTOPed
// or wedged process looks from the outside.

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"mcmdist/internal/mpi"
)

// pipeNet builds a bound-ready 2-rank endpoint hosting rank 0 whose only
// peer (rank 1) is the near end of a net.Pipe. The far end is returned to
// the test: left untouched it models a silent peer; closed it models a
// crashed one.
func pipeNet(opts Options) (*Net, net.Conn) {
	here, there := net.Pipe()
	n := &Net{rank: 0, size: 2, opts: opts.withDefaults(), peers: make([]*peer, 2)}
	n.peers[1] = newPeer(1, here)
	return n, there
}

// postToRank1 posts one collective generation from rank 0 whose only
// remote part, rank 1's, carries words int64s: a POST frame of about
// 8·words bytes on the rank-1 queue.
func postToRank1(n *Net, gen int64, words int) error {
	return n.Post(&mpi.PostMsg{Comm: "world", Ranks: []int{0, 1}, Gen: gen, Op: "test",
		Parts: [][]int64{nil, make([]int64, words)}})
}

// waitNetGoroutinesGone polls until no tcpnet read/flush/heartbeat goroutine
// remains, failing the test if any survives the deadline — the leak check of
// the silent-peer regression.
func waitNetGoroutinesGone(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	buf := make([]byte, 1<<20)
	for {
		stacks := string(buf[:runtime.Stack(buf, true)])
		leaked := strings.Contains(stacks, "(*Net).readLoop") ||
			strings.Contains(stacks, "(*Net).flushLoop") ||
			strings.Contains(stacks, "(*Net).heartbeats")
		if !leaked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("tcpnet goroutines leaked past Close:\n%s", stacks)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHeartbeatDetectsSilentPeer pins the failure detector: a peer that
// stays connected but never sends a frame is declared down within the
// heartbeat timeout, and the world aborts with a PeerDownError naming the
// rank and the heartbeat plane — not a deadlock, not a hang.
func TestHeartbeatDetectsSilentPeer(t *testing.T) {
	n, there := pipeNet(Options{
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  80 * time.Millisecond,
		CloseTimeout:      200 * time.Millisecond,
	})
	defer there.Close()

	// The rank does no communication of its own: peer death must surface
	// through the detector alone, as the abort cause of the world.
	_, err := mpi.RunTransport(mpi.RunConfig{}, n, func(c *mpi.Comm) error {
		time.Sleep(time.Second)
		return nil
	})
	var pd *mpi.PeerDownError
	if !errors.As(err, &pd) {
		t.Fatalf("silent peer surfaced as %v, want PeerDownError", err)
	}
	if pd.Rank != 1 || pd.Op != "heartbeat" {
		t.Fatalf("detector blamed rank %d op %q, want rank 1 op heartbeat", pd.Rank, pd.Op)
	}
	if !mpi.Restartable(err) {
		t.Fatalf("heartbeat death not restartable: %v", err)
	}
	start := time.Now()
	n.Close()
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("Close of aborted endpoint took %v", d)
	}
	waitNetGoroutinesGone(t)
}

// TestCloseBoundedBySilentPeer is the regression test for Close with one
// silent peer: a peer that accepts the connection but never drains it used
// to hold Close for the full write timeout. Now every step of the drain is
// bounded by CloseTimeout and the goroutines are reaped regardless.
func TestCloseBoundedBySilentPeer(t *testing.T) {
	n, there := pipeNet(Options{
		WriteTimeout:      10 * time.Second, // would be the hang, pre-fix
		CloseTimeout:      200 * time.Millisecond,
		HeartbeatInterval: -1, // this test is about the drain, not the detector
	})
	defer there.Close()
	if err := n.Bind(nil); err != nil {
		t.Fatalf("bind: %v", err)
	}

	// Wedge the write plane: the pipe has no reader, so the flusher blocks
	// mid-Write with more frames queued behind it.
	p := n.peers[1]
	for i := 0; i < 4; i++ {
		if err := postToRank1(n, int64(i), 8<<10); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	time.Sleep(20 * time.Millisecond) // let the flusher pick up and block

	start := time.Now()
	n.Close()
	elapsed := time.Since(start)
	if elapsed > 3*time.Second {
		t.Fatalf("Close took %v with a silent peer, want ~CloseTimeout (200ms)", elapsed)
	}
	p.qmu.Lock()
	stuck := p.qtimeout || p.qerr != nil
	p.qmu.Unlock()
	if !stuck {
		t.Fatal("silent peer's queue neither timed out nor errored — what did Close wait for?")
	}
	waitNetGoroutinesGone(t)
}

// TestCloseCleanPeerStillGraceful guards the other side of the bound: a
// healthy peer that drains and answers BYE gets the full graceful path, no
// spurious timeouts.
func TestCloseCleanPeerStillGraceful(t *testing.T) {
	n, there := pipeNet(Options{
		CloseTimeout:      2 * time.Second,
		HeartbeatInterval: -1,
	})
	if err := n.Bind(nil); err != nil {
		t.Fatalf("bind: %v", err)
	}
	// A cooperative far side: drain everything, answer the BYE in kind.
	go func() {
		for {
			var fb frameIn
			typ, _, err := readFrame(there, &fb)
			if err != nil {
				return
			}
			if typ == frameBye {
				writeFrame(there, new(frameOut), frameBye, nil)
			}
		}
	}()
	defer there.Close()
	if err := postToRank1(n, 0, 1); err != nil {
		t.Fatalf("post: %v", err)
	}
	start := time.Now()
	n.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("graceful Close took %v against a cooperative peer", d)
	}
	p := n.peers[1]
	p.qmu.Lock()
	defer p.qmu.Unlock()
	if p.qtimeout {
		t.Fatal("cooperative peer's drain was marked timed out")
	}
	if p.qerr != nil {
		t.Fatalf("cooperative peer's write plane errored: %v", p.qerr)
	}
}

// TestDialRetryWindowBounded pins that dialRetry gives up within (roughly)
// its window when nobody ever listens, instead of retrying forever.
func TestDialRetryWindowBounded(t *testing.T) {
	// A listener we immediately close: the port is real but refuses.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	start := time.Now()
	conn, err := dialRetry(addr, 300*time.Millisecond)
	if err == nil {
		conn.Close()
		t.Fatal("dialRetry connected to a closed port")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("dialRetry held a 300ms window open for %v", d)
	}
}
