package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestTracerRingWrapAndDropped(t *testing.T) {
	tr := NewTracer(0, 4)
	for i := 0; i < 10; i++ {
		tr.EndFlow(KindOp, "op", int64(i), int64(i), 0)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("len(Spans) = %d, want 4", len(spans))
	}
	// Ring unwrap must yield chronological order: the last 4 recorded.
	for i, sp := range spans {
		if want := int64(6 + i); sp.Arg != want {
			t.Fatalf("spans[%d].Arg = %d, want %d (not chronological)", i, sp.Arg, want)
		}
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	t0 := tr.Begin()
	tr.End(KindOp, "x", t0, 0)
	tr.EndFlow(KindCollective, "x", t0, 0, 1)
	tr.Instant("x", 0)
	if tr.Dropped() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer leaked state")
	}
}

func TestFlowIDDeterministicAndDistinct(t *testing.T) {
	a := FlowID("world", 7)
	if b := FlowID("world", 7); a != b {
		t.Fatalf("FlowID not deterministic: %x vs %x", a, b)
	}
	seen := map[uint64]bool{}
	for _, comm := range []string{"world", "row0", "row1", "col0"} {
		for gen := int64(0); gen < 100; gen++ {
			id := FlowID(comm, gen)
			if id == 0 {
				t.Fatalf("FlowID(%q, %d) = 0 (reserved for no-flow)", comm, gen)
			}
			if seen[id] {
				t.Fatalf("FlowID collision at (%q, %d)", comm, gen)
			}
			seen[id] = true
		}
	}
}

func TestCollectorNilSafety(t *testing.T) {
	var c *Collector
	if c.Tracer(0) != nil || c.Recorder(0) != nil {
		t.Fatal("nil collector returned non-nil parts")
	}
	c.AddEvents([]Event{{Name: "x"}})
	if c.Events() != nil || c.Dropped() != 0 {
		t.Fatal("nil collector leaked state")
	}
	if err := c.WriteTrace(&strings.Builder{}); err == nil {
		t.Fatal("nil collector WriteTrace should error")
	}
	if err := c.WriteSeriesCSV(&strings.Builder{}); err == nil {
		t.Fatal("nil collector WriteSeriesCSV should error")
	}
}

// buildTwoRankCollector records a small but structurally complete trace:
// nested compute spans per rank, one collective rendezvous across both
// ranks, an instant, and a world event.
func buildTwoRankCollector() *Collector {
	c := NewCollector(2, Options{Spans: true, TimeSeries: true})
	flow := FlowID("world", 1)
	for r := 0; r < 2; r++ {
		tr := c.Tracer(r)
		solve0 := tr.Begin()
		iter0 := tr.Begin()
		op0 := tr.Begin()
		tr.End(KindOp, "spmv", op0, 42)
		tr.EndFlow(KindCollective, "allreduce", op0, 1, flow)
		tr.Instant("checkpoint", 1)
		tr.End(KindIteration, "iteration", iter0, 10)
		tr.End(KindSolve, "mcm", solve0, 100)
	}
	c.AddEvents([]Event{{Name: "abort", Rank: -1, At: Now()}})
	return c
}

func TestWriteTraceIsValidTraceEventJSON(t *testing.T) {
	c := buildTwoRankCollector()
	var sb strings.Builder
	if err := c.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Ph   string   `json:"ph"`
			Tid  *int     `json:"tid"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			Name string   `json:"name"`
			ID   string   `json:"id"`
			S    string   `json:"s"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
		OtherData       struct {
			Ranks        int `json:"ranks"`
			DroppedSpans int `json:"dropped_spans"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tf.OtherData.Ranks != 2 || tf.DisplayTimeUnit != "ms" {
		t.Fatalf("bad envelope: ranks=%d unit=%q", tf.OtherData.Ranks, tf.DisplayTimeUnit)
	}
	counts := map[string]int{}
	for _, ev := range tf.TraceEvents {
		counts[ev.Ph]++
		if ev.Tid == nil {
			t.Fatalf("event %q missing tid", ev.Name)
		}
		if ev.Ph == "X" && (ev.Ts == nil || ev.Dur == nil) {
			t.Fatalf("complete event %q missing ts/dur", ev.Name)
		}
	}
	// 2 ranks x (solve + iteration + op on even tid, collective on odd tid).
	if counts["X"] != 8 {
		t.Fatalf("X events = %d, want 8", counts["X"])
	}
	// One rendezvous across two ranks: flow start + finish, no steps.
	if counts["s"] != 1 || counts["f"] != 1 {
		t.Fatalf("flow events s=%d f=%d, want 1/1", counts["s"], counts["f"])
	}
	// 2 checkpoint instants + 1 world event.
	if counts["i"] != 3 {
		t.Fatalf("instants = %d, want 3", counts["i"])
	}
	// Collective spans must sit on the odd (comm) track.
	for _, ev := range tf.TraceEvents {
		if ev.Name == "allreduce" && *ev.Tid%2 == 0 {
			t.Fatalf("collective span on compute track tid %d", *ev.Tid)
		}
		if ev.Name == "spmv" && *ev.Tid%2 == 1 {
			t.Fatalf("op span on comm track tid %d", *ev.Tid)
		}
	}
}

func TestQuoteEscapes(t *testing.T) {
	if got := quote("plain"); got != `"plain"` {
		t.Fatalf("quote(plain) = %s", got)
	}
	var decoded string
	if err := json.Unmarshal([]byte(quote("a\"b\\c\nd")), &decoded); err != nil {
		t.Fatalf("quote output not valid JSON: %v", err)
	}
	if decoded != "a\"b\\c\nd" {
		t.Fatalf("quote round-trip = %q", decoded)
	}
}

func TestSeriesMergeAndCSV(t *testing.T) {
	c := NewCollector(2, Options{TimeSeries: true})
	c.Recorder(0).Record(IterSample{Phase: 1, Iteration: 1, Frontier: 10, NewPaths: 2, WallNs: 100, Msgs: 3, Words: 30})
	c.Recorder(1).Record(IterSample{Phase: 1, Iteration: 1, Frontier: 10, NewPaths: 2, WallNs: 250, Msgs: 4, Words: 40})
	c.Recorder(0).Record(IterSample{Phase: 1, Iteration: 2, Frontier: 5, WallNs: 50, Msgs: 1, Words: 10})
	c.Recorder(1).Record(IterSample{Phase: 1, Iteration: 2, Frontier: 5, WallNs: 60, Msgs: 1, Words: 10})

	merged := c.Series()
	if len(merged) != 2 {
		t.Fatalf("merged rows = %d, want 2", len(merged))
	}
	m1 := merged[0]
	if m1.Rank != -1 || m1.WallNs != 250 || m1.Msgs != 7 || m1.Words != 70 || m1.Frontier != 10 {
		t.Fatalf("bad merged row: %+v", m1)
	}
	per := c.PerRankSeries()
	if len(per) != 4 || per[0].Rank != 0 || per[1].Rank != 1 {
		t.Fatalf("bad per-rank ordering: %+v", per)
	}

	var sb strings.Builder
	if err := c.WriteSeriesCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 1+4+2 {
		t.Fatalf("CSV lines = %d, want 7 (header + 4 per-rank + 2 merged)", len(lines))
	}
	if !strings.HasPrefix(lines[0], "rank,phase,iteration,frontier") {
		t.Fatalf("bad CSV header: %s", lines[0])
	}
}
