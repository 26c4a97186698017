// Package obs is the per-rank observability plane of the simulated
// distributed runtime: span tracing and per-iteration time-series. It
// answers the question the paper's evaluation keeps asking of the
// implementation — where did the time go? — at two zoom levels:
//
//   - spans: a fixed-capacity per-rank ring buffer of typed, timestamped
//     intervals (solve → phase → BFS iteration → Table I op, plus
//     collectives, RMA ops and runtime instants), merged post-run into one
//     Chrome trace_event / Perfetto JSON file with one track pair per rank
//     and flow events tying each collective's rendezvous across ranks;
//   - iteration time-series: one sample per level-synchronous BFS iteration
//     (frontier size, paths found, bytes moved, exposed vs hidden
//     communication time, pool utilization), exported as CSV or JSON.
//
// The package is a leaf: it imports nothing from the repository, so mpi,
// rt and core can all depend on it without cycles. Recording is designed
// for the hot path: a Tracer is owned by exactly one rank goroutine, every
// span is a value write into a pre-sized ring (no allocation, no interface
// boxing, static name strings only), and every method is safe — and almost
// free — on a nil receiver, which is the default-off configuration.
package obs

import "time"

// epoch is the process-wide trace time base. All tracers of a run stamp
// spans relative to it, so per-rank tracks align in the merged timeline.
var epoch = time.Now()

// Now returns the current trace timestamp: monotonic nanoseconds since the
// process trace epoch.
func Now() int64 { return int64(time.Since(epoch)) }

// Kind types a span. The hierarchy KindSolve > KindPhase > KindIteration >
// KindOp is properly nested on each rank's compute track; KindCollective
// and KindRMA live on the rank's communication track because a split-phase
// collective legitimately straddles op boundaries (started in one tracked
// section, completed in another).
type Kind uint8

// Span kinds.
const (
	// KindSolve covers one whole MCM run on a rank.
	KindSolve Kind = iota
	// KindPhase covers one augmenting MS-BFS phase.
	KindPhase
	// KindIteration covers one level-synchronous BFS iteration.
	KindIteration
	// KindOp covers one Table I primitive section (spmv, invert, ...).
	KindOp
	// KindCollective covers one collective from post to completion.
	KindCollective
	// KindRMA covers one one-sided operation.
	KindRMA
	// KindInstant marks a point event (fault fired, checkpoint taken,
	// watchdog abort).
	KindInstant
	numKinds
)

// String names the kind, doubling as the trace event category.
func (k Kind) String() string {
	switch k {
	case KindSolve:
		return "solve"
	case KindPhase:
		return "phase"
	case KindIteration:
		return "iteration"
	case KindOp:
		return "op"
	case KindCollective:
		return "collective"
	case KindRMA:
		return "rma"
	case KindInstant:
		return "instant"
	default:
		return "span"
	}
}

// Span is one recorded interval (or instant, when Dur is 0 and Kind is
// KindInstant). Name must be a static string: recording stores the header
// only, so a fmt.Sprintf-built name would allocate on the hot path.
type Span struct {
	Kind  Kind
	Name  string
	Start int64  // trace timestamp of the begin
	Dur   int64  // nanoseconds; 0 for instants
	Arg   int64  // kind-specific payload (iteration number, words, ...)
	Flow  uint64 // nonzero: rendezvous id shared by all ranks of a collective
}

// DefaultSpanCap is the per-rank ring capacity when a Collector is built
// without an explicit one (~64k spans, a few MB per rank).
const DefaultSpanCap = 1 << 16

// Tracer records spans for one rank into a bounded ring. It is
// single-writer: only the owning rank goroutine may record (the runtime
// hands each rank its own tracer), and the merger reads only after the
// world has finished. The backing array starts small and doubles up to the
// configured capacity — O(log cap) amortized allocations for a whole solve,
// so short solves never pay for a capacity they don't use. Once at
// capacity the ring wraps: the oldest spans are overwritten and counted in
// Dropped, and tracing never grows memory again.
//
// A nil *Tracer is the tracing-off state: every method returns immediately.
type Tracer struct {
	rank   int
	maxCap int
	spans  []Span
	next   int
	total  uint64
}

// initialRingCap is the starting backing-array capacity of a tracer ring.
const initialRingCap = 512

// NewTracer returns a tracer for the given rank with the given ring
// capacity (DefaultSpanCap when cap <= 0).
func NewTracer(rank, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	initial := initialRingCap
	if initial > capacity {
		initial = capacity
	}
	return &Tracer{rank: rank, maxCap: capacity, spans: make([]Span, 0, initial)}
}

// Begin returns the timestamp opening a span (0 on a nil tracer). Pair it
// with End/EndFlow; nesting is implied by interval containment, so no
// per-span state is held between Begin and End.
func (t *Tracer) Begin() int64 {
	if t == nil {
		return 0
	}
	return Now()
}

// record appends one span value into the ring, doubling the backing array
// until it reaches the configured capacity, then overwriting the oldest
// entry.
func (t *Tracer) record(sp Span) {
	t.total++
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, sp)
		return
	}
	if cap(t.spans) < t.maxCap {
		// Wrapping only starts at full capacity, so the ring is still in
		// append order here (next == 0) and a plain copy preserves it.
		n := 2 * cap(t.spans)
		if n > t.maxCap {
			n = t.maxCap
		}
		grown := make([]Span, len(t.spans), n)
		copy(grown, t.spans)
		t.spans = append(grown, sp)
		return
	}
	t.spans[t.next] = sp
	t.next++
	if t.next == len(t.spans) {
		t.next = 0
	}
}

// End records a span begun at start. name must be static (see Span).
func (t *Tracer) End(k Kind, name string, start, arg int64) {
	if t == nil {
		return
	}
	t.record(Span{Kind: k, Name: name, Start: start, Dur: Now() - start, Arg: arg})
}

// EndFlow is End carrying a collective rendezvous id: every rank of the
// collective records the same flow, and the merger ties them together.
func (t *Tracer) EndFlow(k Kind, name string, start, arg int64, flow uint64) {
	if t == nil {
		return
	}
	t.record(Span{Kind: k, Name: name, Start: start, Dur: Now() - start, Arg: arg, Flow: flow})
}

// Instant records a point event at the current time.
func (t *Tracer) Instant(name string, arg int64) {
	if t == nil {
		return
	}
	t.record(Span{Kind: KindInstant, Name: name, Start: Now(), Arg: arg})
}

// Dropped returns how many spans were overwritten by ring wrap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	if t.total <= uint64(cap(t.spans)) {
		return 0
	}
	return t.total - uint64(cap(t.spans))
}

// Spans returns the recorded spans in chronological order (ring unwrapped).
// Call only after the owning rank has finished recording.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, 0, len(t.spans))
	out = append(out, t.spans[t.next:]...)
	out = append(out, t.spans[:t.next]...)
	return out
}

// FlowID derives the rendezvous id of one collective: a hash of the
// communicator id mixed with the collective's generation number. Every
// member computes the same id from the same inputs, which is what lets the
// merger pair the per-rank spans of one rendezvous without any extra
// communication.
func FlowID(commID string, gen int64) uint64 {
	// FNV-1a over the comm id, then a splitmix-style stir of the generation.
	h := uint64(14695981039346656037)
	for i := 0; i < len(commID); i++ {
		h ^= uint64(commID[i])
		h *= 1099511628211
	}
	x := h ^ (uint64(gen) + 0x9e3779b97f4a7c15)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Event is a world-plane instant that no single rank goroutine owns — a
// watchdog abort, a deadlock diagnosis. The runtime collects them under its
// own lock and the merger renders them as global instants.
type Event struct {
	Name string
	Rank int // rank the event is attributed to, -1 for the whole world
	At   int64
	Arg  int64
}
