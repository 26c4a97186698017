package mpi

import (
	"fmt"
	"sync"
	"time"

	"mcmdist/internal/obs"
)

// Request is one rank's handle on a split-phase collective. The call has
// already been posted to the mailbox (starting never blocks); it completes
// in Wait. Completion assembles the result, meters the transfer exactly once
// with the same counts as the blocking counterpart, and — for collectives
// whose peers read this rank's send buffer (all of them except Allreduce,
// Barrier, Split and WinCreate, which post rows of their own) — waits until every peer hosted in this process has finished
// reading, so the MPI contract "the send buffer may be reused after
// completion" carries over to recycled arena buffers. Peers in other
// processes read the copy the transport made at post time.
//
// A Request is safe for concurrent Wait from multiple goroutines; the
// result on a Pending handle is valid once any of them returns.
type Request struct {
	c   *Comm
	gen int64
	op  string

	mu      sync.Mutex
	started time.Time
	done    bool
	lending bool            // completion additionally waits for consumption
	finish  func([][]int64) // reads the received row and meters; may be nil
}

// start posts row (one part per destination member, nil for none) as this
// communicator's next collective and returns the request handle. It never
// blocks (beyond the fault plane's injected straggler delay, when one is
// configured). op labels the collective for watchdog diagnostics and fault
// injection. Every collective but the progressive Parts variants runs
// through start and Wait.
func (c *Comm) start(op string, row [][]int64, lending bool, finish func(got [][]int64)) *Request {
	c.enterCollective(op)
	gen := c.nextGen
	c.nextGen++
	r := &Request{c: c, gen: gen, op: op, started: time.Now(), lending: lending, finish: finish}
	c.st.post(c.member, gen, row, op)
	return r
}

// Wait blocks until the collective completes: finish reads the received
// row, then this rank retires its read and, for a lending collective, waits
// for every local peer to retire theirs. finish runs before the retirement
// because a retired generation's remote parts go back to the world's free
// list: got must not be read, or kept, after finish returns. Wait then
// records the time ledger once, plus a collective span (post to
// completion) on the rank's comm track when tracing is on. Idempotent.
func (r *Request) Wait() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return
	}
	begin := time.Now()
	got := r.c.st.collect(r.c.member, r.gen)
	if r.finish != nil {
		r.finish(got)
	}
	r.c.st.finishRead(r.gen)
	if r.lending {
		r.c.st.waitConsumed(r.gen)
	}
	exposed := time.Since(begin)
	r.done = true
	r.c.addCommTimes(time.Since(r.started), exposed)
	if tr := r.c.tracer(); tr != nil {
		tr.EndFlow(obs.KindCollective, r.op, obs.At(r.started), r.gen, obs.FlowID(r.c.st.id, r.gen))
	}
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

// IAllgatherv starts a split-phase allgather of data; result and metering
// as Allgatherv. The caller must not mutate data before completion.
func (c *Comm) IAllgatherv(data []int64) *Pending[[][]int64] {
	size := c.Size()
	q := &Pending[[][]int64]{}
	q.r = c.start("allgatherv", c.fill(data), true, func(got [][]int64) {
		out := make([][]int64, size)
		var words, wordsEnc int64
		for s, in := range got {
			if s == c.member {
				out[s] = data
				continue
			}
			words += int64(len(in))
			wordsEnc += c.encWords(in)
			out[s] = append([]int64(nil), in...)
		}
		c.addComm(KindAllgather, int64(size-1), words, wordsEnc)
		q.out = out
	})
	return q
}

// IAllgathervInto starts a split-phase buffer-lending allgather; result and
// metering as AllgathervInto. On completion no peer reads data any more, so
// both data and the returned buffer may be recycled.
func (c *Comm) IAllgathervInto(data []int64, buf []int64) *Pending[[]int64] {
	size := c.Size()
	q := &Pending[[]int64]{out: buf}
	q.r = c.start("allgatherv", c.fill(data), true, func(got [][]int64) {
		var words, wordsEnc int64
		for s, in := range got {
			if s != c.member {
				words += int64(len(in))
				wordsEnc += c.encWords(in)
			}
			q.out = append(q.out, in...)
		}
		c.addComm(KindAllgather, int64(size-1), words, wordsEnc)
	})
	return q
}

// IAlltoallv starts a split-phase personalized all-to-all; result and
// metering as Alltoallv. The caller must not mutate parts before
// completion.
func (c *Comm) IAlltoallv(parts [][]int64) *Pending[[][]int64] {
	words, wordsEnc := c.checkParts("Alltoallv", parts)
	size := c.Size()
	q := &Pending[[][]int64]{}
	q.r = c.start("alltoallv", parts, true, func(got [][]int64) {
		out := make([][]int64, size)
		for s, in := range got {
			if s == c.member {
				out[s] = in
				continue
			}
			out[s] = append([]int64(nil), in...)
		}
		c.addComm(KindAlltoall, int64(size-1), words, wordsEnc)
		q.out = out
	})
	return q
}

// IAlltoallvFlat starts a split-phase flat personalized all-to-all; result
// and metering as AlltoallvFlat. On completion parts and the buffer may be
// recycled.
func (c *Comm) IAlltoallvFlat(parts [][]int64, buf []int64) *Pending[[]int64] {
	words, wordsEnc := c.checkParts("AlltoallvFlat", parts)
	size := c.Size()
	q := &Pending[[]int64]{out: buf}
	q.r = c.start("alltoallv", parts, true, func(got [][]int64) {
		for _, in := range got {
			q.out = append(q.out, in...)
		}
		c.addComm(KindAlltoall, int64(size-1), words, wordsEnc)
	})
	return q
}

// IAllreduce starts a split-phase allreduce of val; result and metering as
// Allreduce. Nothing is lent (the one-word payload, shared by the whole
// row, is allocated at start), so completion does not wait for peers to
// read — the natural fit for pipelined scalar reductions like the frontier
// count.
func (c *Comm) IAllreduce(op ReduceOp, val int64) *Pending[int64] {
	size := c.Size()
	q := &Pending[int64]{}
	q.r = c.start("allreduce", c.fill([]int64{val}), false, func(got [][]int64) {
		acc := got[0][0]
		for _, in := range got[1:] {
			acc = op.Apply(acc, in[0])
		}
		depth := logTreeDepth(size)
		c.addComm(KindReduce, 2*depth, 2*depth, c.rawEnc(2*depth))
		q.out = acc
	})
	return q
}

// checkParts validates a personalized-all-to-all send row before anything
// is posted (so a malformed call panics without corrupting the collective
// stream) and returns the raw and encoded words sent to other ranks. The
// row itself is posted as it is.
func (c *Comm) checkParts(name string, parts [][]int64) (words, wordsEnc int64) {
	if len(parts) != c.Size() {
		panic(fmt.Sprintf("mpi: %s with %d parts on %d ranks", name, len(parts), c.Size()))
	}
	for d, p := range parts {
		if d != c.member {
			words += int64(len(p))
			wordsEnc += c.encWords(p)
		}
	}
	return words, wordsEnc
}

// PartsRequest is a progressive split-phase collective: instead of waiting
// for every peer, Next hands back each source's payload as it arrives, so
// the caller can fold local work (multiply, merge, copy-out) into the wait
// for stragglers. Payloads returned by Next alias the sender's buffer —
// they are read-only and valid until Finish. Finish retires the exchange:
// it meters once (identically to the blocking counterpart), declares this
// rank done reading, and waits until every peer hosted in this process is
// too, after which the caller may recycle its send parts.
type PartsRequest struct {
	c   *Comm
	gen int64
	op  string

	mu        sync.Mutex
	delivered []bool
	ndeliv    int
	kind      CommKind
	msgs      int64
	words     int64 // alltoall: fixed at start; allgather: grows per arrival
	wordsEnc  int64 // encoded counterpart of words, same accrual rule
	recvWords bool  // words counted from received payloads (allgather rule)
	started   time.Time
	exposed   time.Duration
	finished  bool
}

// IAllgathervParts starts a progressive allgather of data: each peer's
// contribution is surfaced by Next as it arrives. Metering (at Finish) is
// identical to Allgatherv.
func (c *Comm) IAllgathervParts(data []int64) *PartsRequest {
	return c.startParts("allgatherv", c.fill(data), &PartsRequest{kind: KindAllgather, recvWords: true})
}

// IAlltoallvParts starts a progressive personalized all-to-all: each
// source's part is surfaced by Next as it arrives. Metering (at Finish) is
// identical to Alltoallv.
func (c *Comm) IAlltoallvParts(parts [][]int64) *PartsRequest {
	words, wordsEnc := c.checkParts("AlltoallvParts", parts)
	return c.startParts("alltoallv", parts, &PartsRequest{kind: KindAlltoall, words: words, wordsEnc: wordsEnc})
}

// startParts is start for the progressive requests: it posts row as this
// communicator's next collective and returns pr, whose metering rule the
// caller has set, as its handle.
func (c *Comm) startParts(op string, row [][]int64, pr *PartsRequest) *PartsRequest {
	c.enterCollective(op)
	pr.c, pr.gen, pr.op = c, c.nextGen, op
	c.nextGen++
	pr.delivered = make([]bool, len(row))
	pr.msgs = int64(len(row) - 1)
	pr.started = time.Now()
	c.st.post(c.member, pr.gen, row, op)
	return pr
}

// Next blocks until an undelivered source's payload has arrived and returns
// (src, payload, true); sources come back in arrival order, not rank order.
// It returns ok=false once every source has been delivered. The payload
// aliases the sender's buffer, or for a source in another process a buffer
// the world recycles once the generation retires: treat it as read-only
// and do not retain it past Finish.
func (pr *PartsRequest) Next() (src int, payload []int64, ok bool) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.next()
}

// next is Next with pr.mu held.
func (pr *PartsRequest) next() (int, []int64, bool) {
	if pr.ndeliv == len(pr.delivered) {
		return -1, nil, false
	}
	begin := time.Now()
	src, in := pr.c.st.nextArrived(pr.c.member, pr.gen, pr.delivered)
	pr.exposed += time.Since(begin)
	pr.delivered[src] = true
	pr.ndeliv++
	if pr.recvWords && src != pr.c.member {
		pr.words += int64(len(in))
		pr.wordsEnc += pr.c.encWords(in)
	}
	return src, in, true
}

// Drain appends every remaining source's payload into buf in arrival order
// and returns the grown buffer. The copy means buf stays valid after
// Finish; arrival order is fine for consumers that combine the union
// order-free.
func (pr *PartsRequest) Drain(buf []int64) []int64 {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	for {
		_, part, ok := pr.next()
		if !ok {
			return buf
		}
		buf = append(buf, part...)
	}
}

// Finish completes the exchange: any undelivered sources are drained (their
// payloads discarded, but still counted), the transfer is metered exactly
// once, and the call blocks until every peer hosted in this process has
// finished reading this rank's parts — after which the send buffers may be
// recycled. Idempotent.
func (pr *PartsRequest) Finish() {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.finished {
		return
	}
	for {
		if _, _, ok := pr.next(); !ok {
			break
		}
	}
	begin := time.Now()
	pr.c.st.finishRead(pr.gen)
	pr.c.st.waitConsumed(pr.gen)
	pr.exposed += time.Since(begin)
	pr.c.addComm(pr.kind, pr.msgs, pr.words, pr.wordsEnc)
	pr.c.addCommTimes(time.Since(pr.started), pr.exposed)
	if tr := pr.c.tracer(); tr != nil {
		tr.EndFlow(obs.KindCollective, pr.op, obs.At(pr.started), pr.gen, obs.FlowID(pr.c.st.id, pr.gen))
	}
	pr.finished = true
}
