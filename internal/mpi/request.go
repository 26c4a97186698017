package mpi

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"mcmdist/internal/obs"
)

// Request is one rank's handle on a split-phase collective. The call has
// already been posted to the mailbox (starting never blocks); it completes
// in Wait. Completion assembles the result, meters the transfer exactly once
// with the same counts as the blocking counterpart, and — for collectives
// whose peers read this rank's send buffer (all of them except the
// allreduces, Barrier, Split and WinCreate, which post rows of their own)
// — waits until every peer hosted in this process has finished reading, so
// the MPI contract "the send buffer may be reused after completion" carries
// over to recycled arena buffers. Peers in other processes read the copy the
// transport made at post time.
//
// A progressive request (IAllgathervParts, IAlltoallvParts) also hands back
// each source's payload as it arrives, through Next or Drain, so the caller
// can fold local work (multiply, merge, copy-out) into the wait for
// stragglers; its Wait drains the sources not yet delivered, discarding
// their payloads but still counting them.
//
// A Request is safe for concurrent use from multiple goroutines; the result
// on a Pending handle is valid once any Wait returns.
type Request struct {
	c       *Comm
	gen     int64
	mu      sync.Mutex
	started int64           // trace timestamp (obs.Now) of the post
	finish  func([][]int64) // assembles the result from the received row; may be nil
	// delivered is the arrival cursor of a progressive request, one flag
	// per source; nil on every other request.
	delivered []bool
	tally          // the metering rule; receive-counted words accrue here
	lending   bool // completion additionally waits for consumption
	done      bool
}

// tally is a request's metering rule: the collective family, the message
// count and the words moved. A send-counted form (alltoall, the scatter
// root, the gather leaves, allreduce) fixes words at start; a
// receive-counted form (allgather, the gather root, the scatter leaves) sets
// recv and accrues every part received from another member. A tally with no
// messages meters nothing (Barrier, Split, WinCreate).
type tally struct {
	words, wordsEnc int64
	msgs            int32
	kind            CommKind
	recv            bool
}

// start posts row (one part per destination member, nil for none) as this
// communicator's next collective and returns the request handle, which
// meters by t. It never blocks (beyond the fault plane's injected straggler
// delay, when one is configured). op labels the collective for watchdog
// diagnostics and fault injection. Every collective runs through start and
// Wait.
func (c *Comm) start(op string, row [][]int64, lending bool, t tally, finish func(got [][]int64)) *Request {
	c.enterCollective(op)
	r := &Request{c: c, gen: c.nextGen, started: obs.Now(), finish: finish, tally: t, lending: lending}
	c.nextGen++
	c.st.post(c.member, r.gen, row, op)
	return r
}

// Wait blocks until the collective completes. A progressive request first
// drains its undelivered sources; any other request reads the whole received
// row and hands it to finish. Then this rank retires its read and, for a
// lending collective, waits for every local peer to retire theirs. finish
// runs before the retirement because a retired generation's remote parts go
// back to the world's free list: got must not be read, or kept, after
// finish returns. Wait then meters the transfer and records the time ledger
// once, plus a collective span (post to completion, named by the mailbox's
// label for the generation) on the rank's comm track when tracing is on.
// Idempotent.
func (r *Request) Wait() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return
	}
	for {
		if _, _, ok := r.next(); !ok {
			break
		}
	}
	begin := obs.Now()
	if r.delivered == nil {
		got := r.c.st.collect(r.c.member, r.gen)
		for s, in := range got {
			r.receive(s, in)
		}
		if r.finish != nil {
			r.finish(got)
		}
	}
	tr := r.c.tracer()
	var op string
	if tr != nil {
		op = r.c.st.label(r.gen)
	}
	r.c.st.finishRead(r.gen)
	if r.lending {
		r.c.st.waitConsumed(r.gen)
	}
	end := obs.Now()
	r.done = true
	if r.msgs != 0 {
		r.c.addComm(r.kind, int64(r.msgs), r.words, r.wordsEnc)
	}
	r.c.addCommTimes(time.Duration(end-r.started), time.Duration(end-begin))
	if tr != nil {
		tr.EndFlow(obs.KindCollective, op, r.started, r.gen, obs.FlowID(r.c.st.id, r.gen))
	}
}

// receive accrues src's received part to a receive-counted tally; the
// rank's own part moves nothing.
func (r *Request) receive(src int, in []int64) {
	if r.recv && src != r.c.member {
		r.words += int64(len(in))
		r.wordsEnc += r.c.encWords(in)
	}
}

// Next blocks until an undelivered source's payload has arrived and returns
// (src, payload, true); sources come back in arrival order, not rank order.
// It returns ok=false once every source has been delivered, and at once on
// a request that is not progressive. The payload aliases the sender's
// buffer, or for a source in another process a buffer the world recycles
// once the generation retires: treat it as read-only and do not retain it
// past Wait.
func (r *Request) Next() (src int, payload []int64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next()
}

// next is Next with r.mu held. Its blocked time enters the ledger's
// exposed share at once; Wait adds the request's total.
func (r *Request) next() (int, []int64, bool) {
	if !slices.Contains(r.delivered, false) {
		return -1, nil, false
	}
	begin := obs.Now()
	src, in := r.c.st.nextArrived(r.c.member, r.gen, r.delivered)
	r.c.addCommTimes(0, time.Duration(obs.Now()-begin))
	r.delivered[src] = true
	r.receive(src, in)
	return src, in, true
}

// Drain appends every remaining source's payload into buf in arrival order
// and returns the grown buffer. The copy means buf stays valid after Wait;
// arrival order is fine for consumers that combine the union order-free.
func (r *Request) Drain(buf []int64) []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		_, part, ok := r.next()
		if !ok {
			return buf
		}
		buf = append(buf, part...)
	}
}

// progressive arms r's arrival cursor, one flag per source.
func (r *Request) progressive() *Request {
	r.delivered = make([]bool, r.c.Size())
	return r
}

// Pending is a split-phase collective resolving to a T: one slice per
// source rank (IAllgatherv, IAlltoallv), one flat buffer (IAllgathervInto,
// IAlltoallvFlat) or a scalar (IAllreduce).
type Pending[T any] struct {
	r   *Request
	out T
}

// Wait blocks until the collective completes and returns the result.
func (q *Pending[T]) Wait() T {
	q.r.Wait()
	return q.out
}

// gathered is the tally of an allgather: p-1 messages and the words
// received from other ranks.
func (c *Comm) gathered() tally {
	return tally{kind: KindAllgather, msgs: int32(c.Size() - 1), recv: true}
}

// IAllgatherv starts a split-phase allgather of data; result and metering
// as Allgatherv. The caller must not mutate data before completion.
func (c *Comm) IAllgatherv(data []int64) *Pending[[][]int64] {
	q := &Pending[[][]int64]{}
	q.r = c.start("allgatherv", c.fill(data), true, c.gathered(), func(got [][]int64) {
		q.out = c.copied(got)
	})
	return q
}

// IAllgathervInto starts a split-phase buffer-lending allgather; result and
// metering as AllgathervInto. On completion no peer reads data any more, so
// both data and the returned buffer may be recycled.
func (c *Comm) IAllgathervInto(data []int64, buf []int64) *Pending[[]int64] {
	q := &Pending[[]int64]{out: buf}
	q.r = c.start("allgatherv", c.fill(data), true, c.gathered(), func(got [][]int64) {
		for _, in := range got {
			q.out = append(q.out, in...)
		}
	})
	return q
}

// IAllgathervParts starts a progressive allgather of data: each member's
// contribution is surfaced by Next as it arrives. Metering (at Wait) is
// identical to Allgatherv.
func (c *Comm) IAllgathervParts(data []int64) *Request {
	return c.start("allgatherv", c.fill(data), true, c.gathered(), nil).progressive()
}

// IAlltoallv starts a split-phase personalized all-to-all; result and
// metering as Alltoallv. The caller must not mutate parts before
// completion.
func (c *Comm) IAlltoallv(parts [][]int64) *Pending[[][]int64] {
	q := &Pending[[][]int64]{}
	q.r = c.start("alltoallv", parts, true, c.scattered("Alltoallv", KindAlltoall, parts), func(got [][]int64) {
		q.out = c.copied(got)
	})
	return q
}

// IAlltoallvFlat starts a split-phase flat personalized all-to-all; result
// and metering as AlltoallvFlat. On completion parts and the buffer may be
// recycled.
func (c *Comm) IAlltoallvFlat(parts [][]int64, buf []int64) *Pending[[]int64] {
	q := &Pending[[]int64]{out: buf}
	q.r = c.start("alltoallv", parts, true, c.scattered("AlltoallvFlat", KindAlltoall, parts), func(got [][]int64) {
		for _, in := range got {
			q.out = append(q.out, in...)
		}
	})
	return q
}

// IAlltoallvParts starts a progressive personalized all-to-all: each
// source's part is surfaced by Next as it arrives. Metering (at Wait) is
// identical to Alltoallv.
func (c *Comm) IAlltoallvParts(parts [][]int64) *Request {
	return c.start("alltoallv", parts, true, c.scattered("AlltoallvParts", KindAlltoall, parts), nil).progressive()
}

// IAllreduce starts a split-phase allreduce of val; result and metering as
// Allreduce. Nothing is lent (the one-word payload, shared by the whole
// row, is allocated at start), so completion does not wait for peers to
// read — the natural fit for pipelined scalar reductions like the frontier
// count.
func (c *Comm) IAllreduce(op ReduceOp, val int64) *Pending[int64] {
	q := &Pending[int64]{}
	q.r = c.start("allreduce", c.fill([]int64{val}), false, c.reduced(1),
		func(got [][]int64) {
			acc := got[0][0]
			for _, in := range got[1:] {
				acc = op.Apply(acc, in[0])
			}
			q.out = acc
		})
	return q
}

// scattered validates a personalized send row before anything is posted (so
// a malformed call panics without corrupting the collective stream) and
// returns its send-counted tally: p-1 messages and the raw and encoded words
// sent to other ranks. The row itself is posted as it is.
func (c *Comm) scattered(name string, kind CommKind, parts [][]int64) tally {
	if len(parts) != c.Size() {
		panic(fmt.Sprintf("mpi: %s with %d parts on %d ranks", name, len(parts), c.Size()))
	}
	t := tally{kind: kind, msgs: int32(c.Size() - 1)}
	for d, p := range parts {
		if d != c.member {
			t.words += int64(len(p))
			t.wordsEnc += c.encWords(p)
		}
	}
	return t
}

// copied returns the received row with every other member's part copied
// out of the mailbox; the rank's own part is its own send buffer.
func (c *Comm) copied(got [][]int64) [][]int64 {
	out := make([][]int64, len(got))
	for s, in := range got {
		if s == c.member {
			out[s] = in
			continue
		}
		out[s] = append([]int64(nil), in...)
	}
	return out
}
