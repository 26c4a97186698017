package mpi

import (
	"fmt"
	"sync"
)

// Transport is the fabric between the OS processes hosting a world's ranks.
//
// The mailbox model is the seam: every collective is a generation-stamped
// post(member, gen, parts, op) / collect pair, and a Transport only has to
// move two kinds of traffic between processes — posted parts addressed to
// remote members (Post) and one-sided RMA operations executed on the
// process owning the target window (RMA). A generation retires in each
// process once the members hosted there have read it; no read notice
// crosses the fabric, because Post has copied every remote part out of the
// sender's buffers before it returns. Everything above the seam
// (collectives, requests, metering, CommTimes, fault injection, the
// watchdog, span tracing) is backend-agnostic and runs identically on every
// Transport.
//
// A Transport instance is one process's endpoint of exactly one world: it
// hosts LocalRanks() of the WorldSize() ranks and is handed to RunTransport,
// which launches one goroutine per local rank. The in-process backend
// (Inproc) hosts every rank, so its fabric methods are never invoked and
// the historical chan/cond mailbox engine carries all traffic — that is what
// keeps it the bit-for-bit oracle. The tcpnet backend hosts one rank per
// process and ships the same messages over sockets.
//
// Fabric methods are called from rank goroutines (Post, RMA, Abort) and
// must be safe for concurrent use. Inbound traffic is delivered by the
// transport's own receiver goroutines through the World's Deliver* methods
// after Bind.
//
// Remote payloads have a lifetime. A receiver decodes each inbound part
// into a buffer from the bound world's Payloads and hands it over with
// DeliverPost; from then on the mailbox owns it, and when its generation
// retires in this process the buffer goes back to Payloads for the next
// part of its size class. The envelope is the receiver's own: DeliverPost
// copies its Parts row and keeps nothing else, so one PostMsg per
// connection serves every frame.
type Transport interface {
	// Name identifies the backend ("inproc", "tcp") in conformance tests
	// and logs.
	Name() string

	// WorldSize returns the total number of ranks in the world.
	WorldSize() int

	// LocalRanks returns the world ranks hosted by this process, in
	// ascending order. Every rank of the world must be hosted by exactly
	// one endpoint.
	LocalRanks() []int

	// Bind attaches the endpoint to the world that will consume its inbound
	// traffic and starts delivery. Called exactly once, by RunTransport,
	// before any rank goroutine runs.
	Bind(w *World) error

	// Post ships the remote-addressed parts of one mailbox post to the
	// processes hosting them. The caller has already deposited the local
	// parts; implementations must deliver to each remote process exactly
	// one DeliverPost per (source, generation), carrying a nil part where
	// msg.Parts has one (not posted) and a non-nil part, empty or not,
	// where it was posted. Never called when every member of the
	// communicator is local. msg.Parts is the poster's own send row, not a
	// copy, so Post must neither modify it nor retain it or its parts after
	// it returns: a buffer-lending collective completes once the local
	// members have read, and its caller may then overwrite the send buffers
	// while remote members have yet to read their copies.
	Post(msg *PostMsg) error

	// RMA executes one one-sided operation against the window registry of
	// the process hosting the given world rank, blocking for the reply.
	// Never called when the target rank is local.
	RMA(rank int, req *RMAReq) (*RMAResp, error)

	// Abort propagates a world abort to every other process. Best-effort:
	// a dead connection must not block the local abort.
	Abort(msg string)

	// Close tears down the endpoint. Implementations should drain politely
	// (peers may still need this process's window service for a moment)
	// but must return within a bounded time. The world is unusable after.
	Close() error
}

// PostMsg is one rank's mailbox contribution to one collective generation,
// as it crosses a process boundary.
type PostMsg struct {
	// Comm is the communicator id ("world", "world/split@3/c1", ...). Ids
	// are derived collectively, so every process computes the same id for
	// the same communicator.
	Comm string
	// Ranks lists the communicator's members as world ranks, in member
	// order. Carried on the wire so a process can materialize a
	// communicator it has not split yet.
	Ranks []int
	// Src is the posting member's index within Ranks.
	Src int
	// Gen is the collective-call generation on this communicator.
	Gen int64
	// Op labels the collective for watchdog diagnostics ("allreduce", ...).
	Op string
	// Parts[i] is the payload addressed to member i. A nil part was not
	// posted; an empty non-nil part was posted empty (both move zero
	// words). On delivery each non-nil part must be a buffer of its own,
	// which the mailbox takes over (see World.DeliverPost).
	Parts [][]int64
}

// RMAOp codes the one-sided operation an RMAReq carries.
type RMAOp uint8

// The one-sided operations of the Win API.
const (
	// RMAGet reads N elements at Off.
	RMAGet RMAOp = iota
	// RMAPut writes Data at Off.
	RMAPut
	// RMAFetchAndOp applies the coded ReduceOp with Operand at Off and
	// returns the prior value.
	RMAFetchAndOp
	// Code 3 is reserved: it carried a compare-and-swap that is retired.
	// ExecRMA rejects it like any other unknown code.
)

// RMAReq is one one-sided operation crossing a process boundary, executed
// atomically by the process owning the target window slice.
type RMAReq struct {
	// Win is the collectively derived window id.
	Win string
	// Member is the target rank's index within the window's communicator.
	Member int
	// Op selects the operation.
	Op RMAOp
	// Off is the element offset into the target's window slice.
	Off int
	// N is the element count for RMAGet.
	N int
	// Data is the RMAPut payload.
	Data []int64
	// Code names the reduction for RMAFetchAndOp; custom (uncoded) ops
	// cannot cross a process boundary.
	Code OpCode
	// Operand is the scalar argument of RMAFetchAndOp.
	Operand int64
}

// RMAResp is the reply to an RMAReq.
type RMAResp struct {
	// Data is the RMAGet result.
	Data []int64
	// Old is the prior value returned by RMAFetchAndOp.
	Old int64
}

// TransportError wraps a fabric failure (socket error, codec mismatch, peer
// gone). A world whose transport fails aborts with one, so ranks unwind
// through the usual abort plane instead of hanging.
type TransportError struct {
	// Backend is the transport's Name.
	Backend string
	// Op is the fabric operation that failed ("post", "rma", ...).
	Op string
	// Err is the underlying cause.
	Err error
}

// Error formats the backend, operation and cause.
func (e *TransportError) Error() string {
	return fmt.Sprintf("mpi: transport %s: %s: %v", e.Backend, e.Op, e.Err)
}

// Unwrap returns the underlying cause for errors.Is / errors.As.
func (e *TransportError) Unwrap() error { return e.Err }

// RemoteAbortError is the abort cause observed by processes other than the
// one where a world died: the originating process keeps its own structured
// cause (the failing rank's error, a DeadlockError, ...), peers receive its
// rendering. errors.Is matching against the original sentinel is therefore
// only possible on the originating process — callers coordinating a
// multi-process retry must treat any RemoteAbortError as "some peer failed".
type RemoteAbortError struct {
	// From is the world rank whose endpoint propagated the abort (-1 when
	// the origin is unknown).
	From int
	// Msg is the originating process's rendering of the cause.
	Msg string
}

// Error formats the origin and the propagated cause.
func (e *RemoteAbortError) Error() string {
	return fmt.Sprintf("mpi: world aborted by remote rank %d: %s", e.From, e.Msg)
}

// CloseAll closes a set of endpoints concurrently and returns the first
// error. Concurrency matters: a graceful Close drains until its peers say
// BYE, which the peer endpoints of a loopback set only do in their own Close
// — closing them sequentially would serialize full drain timeouts.
func CloseAll(eps []Transport) error {
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep Transport) {
			defer wg.Done()
			errs[i] = ep.Close()
		}(i, ep)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
