// Package rt provides the per-rank runtime context: the reusable state one
// MPI-style rank carries through a distributed matching computation —
// whether that rank is a goroutine of the in-process backend or an OS
// process on the TCP transport makes no difference here, since a Ctx never
// holds cross-rank state.
// Every MS-BFS level used to re-allocate its world — the SpMV expand
// payload, the dense scratch-and-present pair, the fold part buffers, the
// INVERT record buffers — thousands of short-lived slices per rank per
// level. A Ctx owns that state instead:
//
//   - a size-classed buffer arena (GetInts/PutInts, GetParts/PutParts) with
//     strict borrow/return discipline: a lent buffer never outlives the
//     primitive call that borrowed it, so pooled storage can never alias
//     live algorithm state;
//   - dense scratch (Scratch), a value array plus a presence bitmap cleared
//     on borrow, that replaces the per-call "allocate scratch + present"
//     pattern: a borrow clears one word per 64 entries, and Next walks the
//     present entries in order, so the SpMV fold and the INVERT receive
//     visit only the entries they touched;
//   - per-op measurement (Track): the wall time and communication deltas
//     of one tracked section, recorded as an op span.
//
// The frontier vectors are not arena storage. They belong to the engine run
// that made them and outlive every primitive call: a vector the level has
// finished with is handed to the next receive as its destination, and
// SELECT and PRUNE filter in place (see package dvec). Keeping them out of
// the arena is what lets the arena keep its one rule.
//
// A Ctx belongs to exactly one rank goroutine at a time and is not
// internally synchronized. It may be rebound (Bind) to a fresh communicator
// and reused across solves — the session layer does this so repeated
// matchings on one DistributedGraph run allocation-quiet — but never shared
// between concurrently running ranks.
//
// A nil or disabled Ctx is always safe: every Get falls back to a plain
// allocation and every Put is a no-op, which is also the "pooling off"
// arm of the equivalence tests.
package rt

import (
	"math/bits"
	"time"

	"mcmdist/internal/mpi"
	"mcmdist/internal/obs"
	"mcmdist/internal/parallel"
	"mcmdist/internal/semiring"
)

const (
	// minClassCap is the smallest pooled capacity; smaller requests round up.
	minClassCap = 64
	// numClasses spans capacities 64 << 0 .. 64 << 25 (~2 G elements).
	numClasses = 26
	// maxPerClass bounds how many free buffers one class retains, so the
	// arena's footprint stays proportional to the algorithm's live set.
	maxPerClass = 4
)

// Ctx is one rank's runtime context. The zero value is not usable; construct
// with New or NewDisabled.
type Ctx struct {
	comm    *mpi.Comm
	enabled bool

	ints  [numClasses][][]int64
	parts [][][]int64 // free personalized-collective send-buffer sets

	scratch map[string]*Scratch
	shards  map[string][]*Scratch

	pool *parallel.Pool

	// trc is the rank's span tracer (nil = tracing off). Track records one
	// op span per tracked section into it, which is what puts the Table I
	// primitives on the timeline.
	trc *obs.Tracer
}

// New returns an enabled context bound to comm.
func New(comm *mpi.Comm) *Ctx {
	return &Ctx{comm: comm, enabled: true, scratch: make(map[string]*Scratch)}
}

// NewDisabled returns a context whose arena is pass-through: every Get
// allocates fresh storage and every Put discards. The pooling on/off
// equivalence tests use it as the unpooled reference.
func NewDisabled(comm *mpi.Comm) *Ctx {
	return &Ctx{comm: comm, enabled: false}
}

// Bind re-attaches the context to a new communicator. Buffer and scratch
// contents survive, which is the point: a session reuses one context per
// rank across solves, each solve running on a fresh simulated world.
func (c *Ctx) Bind(comm *mpi.Comm) {
	if c != nil {
		c.comm = comm
	}
}

// Enabled reports whether the arena actually pools (false for nil or
// disabled contexts).
func (c *Ctx) Enabled() bool { return c != nil && c.enabled }

// SetTracer attaches (or, with nil, detaches) the rank's span tracer. The
// solver wires the same tracer into the context and its communicator at
// rank setup, so op spans and collective spans land on one timeline. Safe
// on a nil context.
func (c *Ctx) SetTracer(t *obs.Tracer) {
	if c != nil {
		c.trc = t
	}
}

// Tracer returns the rank's span tracer (nil when tracing is off; a nil
// tracer's methods are no-ops, so callers need not check).
func (c *Ctx) Tracer() *obs.Tracer {
	if c == nil {
		return nil
	}
	return c.trc
}

// EnsureThreads sizes the context's persistent worker pool — the rank's
// intra-node thread team, the analogue of the paper's OpenMP threads — to t.
// Idempotent when the size already matches; resizing closes the old team and
// parks a new one. t <= 1 (and a disabled-arena context alike) keeps the
// inline nil pool. Safe on a nil context.
func (c *Ctx) EnsureThreads(t int) {
	if c == nil {
		return
	}
	if t < 1 {
		t = 1
	}
	if c.pool.Threads() == t {
		return
	}
	c.pool.Close()
	c.pool = parallel.NewPool(t)
}

// Pool returns the context's worker pool. A nil return (nil context, or
// EnsureThreads never called / called with t <= 1) is itself a valid pool
// that runs every region inline.
func (c *Ctx) Pool() *parallel.Pool {
	if c == nil {
		return nil
	}
	return c.pool
}

// ThreadStats returns the pool's cumulative telemetry (zero-valued with
// Threads=1 when there is no pool).
func (c *Ctx) ThreadStats() parallel.Stats { return c.Pool().Stats() }

// Close releases the context's resources with OS-visible lifetime: the
// parked worker goroutines. Buffers and scratch are plain garbage-collected
// memory and need no release, but parked goroutines are GC roots — a context
// that had EnsureThreads called must be Closed when its rank is done (the
// solver does this for contexts it creates; sessions close their cached
// contexts via DistributedGraph.Close). Safe on a nil context, idempotent,
// and the context remains usable afterwards with an inline pool.
func (c *Ctx) Close() {
	if c == nil {
		return
	}
	c.pool.Close()
	c.pool = nil
}

// classFor returns the size class whose capacity (minClassCap << class)
// holds n elements.
func classFor(n int) int {
	cls, cap := 0, minClassCap
	for cap < n && cls < numClasses-1 {
		cap <<= 1
		cls++
	}
	return cls
}

// putClass returns the largest class whose capacity the buffer satisfies,
// or ok=false when the buffer is too small to pool. Storing under that
// class keeps the Get invariant: every pooled buffer of class c has
// capacity >= minClassCap << c.
func putClass(bufCap int) (cls int, ok bool) {
	if bufCap < minClassCap {
		return 0, false
	}
	cls = classFor(bufCap)
	if minClassCap<<cls > bufCap {
		cls--
	}
	return cls, true
}

// GetInts borrows an int64 buffer with length 0 and capacity >= n. Append
// into it; return it with PutInts before the borrowing call returns.
func (c *Ctx) GetInts(n int) []int64 {
	if !c.Enabled() {
		return make([]int64, 0, n)
	}
	cls := classFor(n)
	if l := len(c.ints[cls]); l > 0 {
		b := c.ints[cls][l-1]
		c.ints[cls] = c.ints[cls][:l-1]
		return b[:0]
	}
	return make([]int64, 0, minClassCap<<cls)
}

// PutInts returns a buffer obtained from GetInts (possibly grown by appends
// or by a buffer-lending collective) to the arena.
func (c *Ctx) PutInts(b []int64) {
	cls, ok := putClass(cap(b))
	if !c.Enabled() || !ok {
		return
	}
	if len(c.ints[cls]) < maxPerClass {
		c.ints[cls] = append(c.ints[cls], b[:0])
	}
}

// GetParts borrows a set of p per-destination send buffers for a
// personalized collective, each reset to length 0 but keeping its grown
// backing array across borrows. Return the set with PutParts after the
// collective; the buffer-lending collectives copy out of it, so nothing
// received aliases the parts.
func (c *Ctx) GetParts(p int) [][]int64 {
	if !c.Enabled() {
		return make([][]int64, p)
	}
	var full [][]int64
	if l := len(c.parts); l > 0 {
		full = c.parts[l-1]
		c.parts = c.parts[:l-1]
	}
	if cap(full) < p {
		grown := make([][]int64, p)
		copy(grown, full[:cap(full)])
		full = grown
	}
	ps := full[:cap(full)][:p]
	for i := range ps {
		ps[i] = ps[i][:0]
	}
	return ps
}

// PutParts returns a GetParts set (with whatever the caller appended; the
// backings are kept for the next borrow).
func (c *Ctx) PutParts(ps [][]int64) {
	if !c.Enabled() || cap(ps) == 0 {
		return
	}
	if len(c.parts) < maxPerClass {
		c.parts = append(c.parts, ps[:cap(ps)])
	}
}

// Scratch is a dense (value, present) workspace over the index range [0, n)
// of one borrow. Presence is a bitmap, one word per 64 entries, cleared on
// borrow: Has(i) is true only for indices Set since the last
// borrow, and Next walks the present indices in order, so a consumer pays
// for the n/64 words plus the entries it touched rather than for n.
type Scratch struct {
	Val  []semiring.Vertex
	bits []uint64
}

// reset re-slices s to n entries, growing its storage if needed, and clears
// the presence words the borrow spans. Values are not zeroed: an entry is
// read only after Set.
func (s *Scratch) reset(n int) {
	if cap(s.Val) < n {
		s.Val = make([]semiring.Vertex, n)
		s.bits = make([]uint64, (n+63)/64)
	}
	s.Val = s.Val[:n]
	s.bits = s.bits[:(n+63)/64]
	clear(s.bits)
}

// Scratch borrows the dense workspace registered under tag, sized to n
// entries, with all entries absent. Distinct concurrent uses must use
// distinct tags: re-borrowing a tag invalidates the previous borrow's
// entries (that is the reuse mechanism).
func (c *Ctx) Scratch(tag string, n int) *Scratch {
	if !c.Enabled() {
		s := &Scratch{}
		s.reset(n)
		return s
	}
	s := c.scratch[tag]
	if s == nil {
		s = &Scratch{}
		c.scratch[tag] = s
	}
	s.reset(n)
	return s
}

// ScratchShards borrows k dense workspaces registered under tag, each sized
// to n entries with all entries absent: one private shard per worker of a
// parallel combine (the SpMV local multiply writes shard w from worker w
// with no synchronization, then the shards are merged under the semiring op).
// Shards persist and grow under their tag exactly like Scratch; re-borrowing
// a tag invalidates all previous borrows of that tag, and asking for fewer
// shards than last time leaves the extras parked.
func (c *Ctx) ScratchShards(tag string, k, n int) []*Scratch {
	if !c.Enabled() {
		out := make([]*Scratch, k)
		for i := range out {
			out[i] = &Scratch{}
			out[i].reset(n)
		}
		return out
	}
	if c.shards == nil {
		c.shards = make(map[string][]*Scratch)
	}
	ss := c.shards[tag]
	for len(ss) < k {
		ss = append(ss, &Scratch{})
	}
	c.shards[tag] = ss
	out := ss[:k]
	for _, s := range out {
		s.reset(n)
	}
	return out
}

// Has reports whether index i was Set since this borrow.
func (s *Scratch) Has(i int) bool { return s.bits[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set stores v at index i and marks it present.
func (s *Scratch) Set(i int, v semiring.Vertex) {
	s.Val[i] = v
	s.bits[i>>6] |= 1 << (uint(i) & 63)
}

// Next returns the smallest present index >= i, or Len() when there is none,
// so `for i := s.Next(lo); i < hi; i = s.Next(i + 1)` walks the present
// indices of [lo, hi) in order.
func (s *Scratch) Next(i int) int {
	if i >= len(s.Val) {
		return len(s.Val)
	}
	wi := i >> 6
	if w := s.bits[wi] >> (uint(i) & 63); w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.bits); wi++ {
		if w := s.bits[wi]; w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
	}
	return len(s.Val)
}

// Len returns the number of entries the borrow spans.
func (s *Scratch) Len() int { return len(s.Val) }

// OpCost is one tracked section's wall time, communication meter, and
// communication-time ledger (total vs exposed; their difference is the
// latency the split-phase schedules hid behind local work).
type OpCost struct {
	Wall  time.Duration
	Meter mpi.Meter
	Comm  mpi.CommTimes
}

// Track runs fn, records it as an op span named op, and returns its wall
// time plus the communication-meter and communication-time deltas. A
// split-phase request started inside one tracked op and completed inside
// another attributes its meter and times to the op that completed it.
func (c *Ctx) Track(op string, fn func()) OpCost {
	if c == nil || c.comm == nil {
		start := time.Now()
		fn()
		return OpCost{Wall: time.Since(start)}
	}
	before := c.comm.MeterSnapshot()
	beforeCT := c.comm.CommTimes()
	t0 := c.trc.Begin()
	start := time.Now()
	fn()
	delta := OpCost{
		Wall:  time.Since(start),
		Meter: c.comm.MeterSnapshot().Sub(before),
		Comm:  c.comm.CommTimes().Sub(beforeCT),
	}
	c.trc.End(obs.KindOp, op, t0, delta.Meter.Words)
	return delta
}
