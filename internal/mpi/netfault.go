package mpi

import (
	"errors"
	"fmt"
)

// ErrInjectedNetFault marks a world killed by a FaultPlan drop or
// partition. Like the rank-fault sentinels, it lets callers distinguish an
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
