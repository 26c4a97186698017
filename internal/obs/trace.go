package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Options configures a Collector. The zero value records nothing.
type Options struct {
	// Spans enables span tracing (per-rank ring buffers + trace export).
	Spans bool
	// SpanCap overrides the per-rank ring capacity (DefaultSpanCap if <= 0).
	SpanCap int
	// TimeSeries enables per-BFS-iteration sampling.
	TimeSeries bool
}

// Collector owns one solve's observability state: a Tracer and an
// IterRecorder per rank and the world-plane event list. It is created
// before the world launches, handed to each rank read-only (each rank
// touches only its own tracer/recorder slot), and drained after the world
// joins — so the merge path needs no locking beyond the event list.
//
// A nil *Collector is the observability-off state; the accessors return nil
// recorders/tracers, which are themselves no-ops.
type Collector struct {
	opt     Options
	tracers []*Tracer
	recs    []*IterRecorder

	mu            sync.Mutex
	events        []Event
	remoteDropped uint64
	hosted        map[int]bool // ranks recorded here (see Host)
}

// NewCollector builds a collector for a world of the given size.
func NewCollector(ranks int, opt Options) *Collector {
	c := &Collector{opt: opt}
	if opt.Spans {
		c.tracers = make([]*Tracer, ranks)
		for r := range c.tracers {
			c.tracers[r] = NewTracer(r, opt.SpanCap)
		}
	}
	if opt.TimeSeries {
		c.recs = make([]*IterRecorder, ranks)
		for r := range c.recs {
			c.recs[r] = &IterRecorder{rank: r, samples: make([]IterSample, 0, 256)}
		}
	}
	return c
}

// Sibling builds a fresh collector with the same planes enabled as c — the
// shape a peer process of the same world would build from the job spec.
func (c *Collector) Sibling(ranks int) *Collector {
	if c == nil {
		return nil
	}
	return NewCollector(ranks, c.opt)
}

// Tracer returns rank's span tracer (nil when spans are off or the rank is
// out of range — a nil tracer records nothing).
func (c *Collector) Tracer(rank int) *Tracer {
	if c == nil || rank < 0 || rank >= len(c.tracers) {
		return nil
	}
	return c.tracers[rank]
}

// Recorder returns rank's iteration recorder (nil when time-series are off).
func (c *Collector) Recorder(rank int) *IterRecorder {
	if c == nil || rank < 0 || rank >= len(c.recs) {
		return nil
	}
	return c.recs[rank]
}

// AddEvents appends world-plane events (thread-safe; called by the runtime
// after each world joins and by the watchdog path).
func (c *Collector) AddEvents(evs []Event) {
	if c == nil || len(evs) == 0 {
		return
	}
	c.mu.Lock()
	c.events = append(c.events, evs...)
	c.mu.Unlock()
}

// Events returns a copy of the collected world-plane events.
func (c *Collector) Events() []Event {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// Dropped returns the total spans lost to ring wrap across all ranks,
// including drops reported by remote processes at installation.
func (c *Collector) Dropped() uint64 {
	if c == nil {
		return 0
	}
	var n uint64
	for _, t := range c.tracers {
		n += t.Dropped()
	}
	c.mu.Lock()
	n += c.remoteDropped
	c.mu.Unlock()
	return n
}

// WriteTrace merges every rank's spans and the world events into one Chrome
// trace_event JSON object (the format Perfetto and chrome://tracing load).
// Each rank gets a pair of tracks: an even tid for the properly nested
// compute hierarchy (solve/phase/iteration/op) and an odd tid for
// communication (collectives, RMA), where split-phase spans may straddle op
// boundaries. Collective spans sharing a flow id are tied together with
// s/t/f flow events so Perfetto draws the rendezvous arrows across ranks.
func (c *Collector) WriteTrace(w io.Writer) error {
	if c == nil {
		return fmt.Errorf("obs: no collector (tracing was not enabled)")
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }

	bw.WriteString("{\"traceEvents\":[\n")

	// Track metadata: names plus a sort index keeping each rank's compute
	// and comm tracks adjacent.
	for r := range c.tracers {
		emit(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":"rank %d"}}`, 2*r, r)
		emit(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":"rank %d comm"}}`, 2*r+1, r)
		emit(`{"ph":"M","pid":0,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}`, 2*r, 2*r)
		emit(`{"ph":"M","pid":0,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}`, 2*r+1, 2*r+1)
	}
	runtimeTid := 2 * len(c.tracers)
	emit(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":"runtime"}}`, runtimeTid)

	// flowSpan remembers where each collective span landed so the flow pass
	// can attach s/t/f steps inside the right slices.
	type flowSpan struct {
		tid   int
		start int64
	}
	flows := make(map[uint64][]flowSpan)

	for r, t := range c.tracers {
		// Split the ring into the two tracks and emit each in start order
		// (parents before children on ties), so a track's timestamps are
		// monotone in the file — the property cmd/tracelint asserts on
		// merged multi-process traces.
		var compute, comm []Span
		for _, sp := range t.Spans() {
			if sp.Kind == KindCollective || sp.Kind == KindRMA {
				comm = append(comm, sp)
			} else {
				compute = append(compute, sp)
			}
		}
		sortSpansForTrack(compute)
		sortSpansForTrack(comm)
		for half, spans := range [2][]Span{compute, comm} {
			track := 2*r + half
			for _, sp := range spans {
				if sp.Kind == KindInstant {
					emit(`{"ph":"i","pid":0,"tid":%d,"ts":%.3f,"name":%s,"cat":"instant","s":"t","args":{"arg":%d}}`,
						track, us(sp.Start), quote(sp.Name), sp.Arg)
					continue
				}
				emit(`{"ph":"X","pid":0,"tid":%d,"ts":%.3f,"dur":%.3f,"name":%s,"cat":%s,"args":{"arg":%d}}`,
					track, us(sp.Start), us(sp.Dur), quote(sp.Name), quote(sp.Kind.String()), sp.Arg)
				if sp.Flow != 0 {
					flows[sp.Flow] = append(flows[sp.Flow], flowSpan{tid: track, start: sp.Start})
				}
			}
		}
	}

	// Flow events: one chain per rendezvous, ordered by span start. A chain
	// needs at least two participants to be worth drawing.
	ids := make([]uint64, 0, len(flows))
	for id, group := range flows {
		if len(group) >= 2 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		group := flows[id]
		sort.Slice(group, func(i, j int) bool {
			if group[i].start != group[j].start {
				return group[i].start < group[j].start
			}
			return group[i].tid < group[j].tid
		})
		for i, fs := range group {
			ph := "t"
			extra := ""
			switch i {
			case 0:
				ph = "s"
			case len(group) - 1:
				ph = "f"
				extra = `,"bp":"e"`
			}
			emit(`{"ph":"%s","pid":0,"tid":%d,"ts":%.3f,"name":"rendezvous","cat":"flow","id":"%x"%s}`,
				ph, fs.tid, us(fs.start), id, extra)
		}
	}

	// World-plane events (watchdog aborts, deadlock diagnoses): global
	// instants on the runtime track, or thread instants when attributed.
	for _, ev := range c.Events() {
		tid, scope := runtimeTid, "g"
		if ev.Rank >= 0 && ev.Rank < len(c.tracers) {
			tid, scope = 2*ev.Rank, "t"
		}
		emit(`{"ph":"i","pid":0,"tid":%d,"ts":%.3f,"name":%s,"cat":"runtime","s":"%s","args":{"arg":%d}}`,
			tid, us(ev.At), quote(ev.Name), scope, ev.Arg)
	}

	fmt.Fprintf(bw, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"ranks\":%d,\"dropped_spans\":%d}}\n",
		len(c.tracers), c.Dropped())
	return bw.Flush()
}

// quote JSON-escapes a span name. Names are static identifiers in practice,
// so the fast path is a plain wrap in quotes.
func quote(s string) string {
	clean := true
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '"' || c == '\\' || c < 0x20 {
			clean = false
			break
		}
	}
	if clean {
		return `"` + s + `"`
	}
	buf := make([]byte, 0, len(s)+8)
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			buf = append(buf, '\\', '"')
		case c == '\\':
			buf = append(buf, '\\', '\\')
		case c < 0x20:
			buf = append(buf, fmt.Sprintf("\\u%04x", c)...)
		default:
			buf = append(buf, c)
		}
	}
	return string(append(buf, '"'))
}
