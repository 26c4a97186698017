package tcpnet

// An RMA call blocks for its reply, so every event that makes the reply
// impossible must fail the call: a world abort, Close, and the end of the
// target's read loop. These tests pin the two orders that once left a call
// waiting forever — a call made after the abort had already failed the
// calls in flight, and a call in flight when the target said BYE. The
// failure detector is off, so nothing else can rescue a hung call; each
// call gets a deadline instead of hanging the test binary.

import (
	"errors"
	"testing"
	"time"

	"mcmdist/internal/mpi"
)

// rmaUnwindWorld builds a 2-endpoint loopback world without heartbeats.
// Endpoint 1 is never bound, so no request to it is ever answered.
func rmaUnwindWorld(t *testing.T) (n0, n1 *Net) {
	t.Helper()
	eps, err := LoopbackOpts(2, nil, Options{HeartbeatInterval: -1, CloseTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mpi.CloseAll(eps) })
	return eps[0].(*Net), eps[1].(*Net)
}

// errHung reports an RMA call still waiting at callRMA's deadline.
var errHung = errors.New("the RMA call is still waiting for a reply that cannot come")

// callRMA issues a Get to rank 1 and waits for it to return, up to a
// deadline.
func callRMA(n *Net) error {
	done := make(chan error, 1)
	go func() {
		_, err := n.RMA(1, &mpi.RMAReq{Win: "world/win@0", Op: mpi.RMAGet, N: 1})
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		return errHung
	}
}

// TestRMAUnwindAfterAbort: once the bound world has aborted, a new RMA call
// fails at once; the abort's own sweep of the calls in flight ran before it
// was registered.
func TestRMAUnwindAfterAbort(t *testing.T) {
	n0, _ := rmaUnwindWorld(t)
	var callErr error
	_, err := mpi.RunTransport(mpi.RunConfig{}, n0, func(c *mpi.Comm) error {
		c.World().Abort(errors.New("test: abort before the call"))
		callErr = callRMA(n0)
		return nil
	})
	if err == nil {
		t.Fatal("the aborted world reported success")
	}
	if callErr == nil || callErr == errHung {
		t.Fatalf("an RMA call after the abort returned %v, want a failure", callErr)
	}
}

// TestRMAUnwindAtPeerBye: a call in flight to a peer whose BYE then
// arrives fails once the read loop ends, since BYE is the last frame the
// peer sends.
func TestRMAUnwindAtPeerBye(t *testing.T) {
	n0, n1 := rmaUnwindWorld(t)
	var callErr error
	_, err := mpi.RunTransport(mpi.RunConfig{}, n0, func(c *mpi.Comm) error {
		go func() {
			for !hasPendingCall(n0) {
				time.Sleep(time.Millisecond)
			}
			n1.send(n1.peers[0], frameBye, nil)
		}()
		callErr = callRMA(n0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if callErr == nil || callErr == errHung {
		t.Fatalf("an RMA call to a peer that said BYE returned %v, want a failure", callErr)
	}
}

func hasPendingCall(n *Net) bool {
	found := false
	n.pending.Range(func(any, any) bool {
		found = true
		return false
	})
	return found
}
