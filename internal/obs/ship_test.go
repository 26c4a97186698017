package obs

// Tests for the cross-process shipping layer: the ProcObs/FlightDump codec
// round trip, the clock-offset merge invariants (nesting and per-track
// order survive any skew), and the shared-collector double-count guard.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fillRank records a deterministic little span hierarchy and two iteration
// samples for one rank of a collector, shifted by base —
// the stand-in for a process whose epoch differs from ours by base.
func fillRank(c *Collector, rank int, base int64) {
	t := c.Tracer(rank)
	t.record(Span{Kind: KindSolve, Name: "solve", Start: base + 100, Dur: 10_000})
	t.record(Span{Kind: KindOp, Name: "spmv", Start: base + 200, Dur: 1_000, Arg: 1})
	t.record(Span{Kind: KindCollective, Name: "allgatherv", Start: base + 300, Dur: 400, Flow: 7})
	t.record(Span{Kind: KindOp, Name: "spmv", Start: base + 2_000, Dur: 1_000, Arg: 2})
	t.record(Span{Kind: KindInstant, Name: "note", Start: base + 2_500, Arg: int64(rank)})
	rec := c.Recorder(rank)
	rec.Record(IterSample{Phase: 1, Iteration: 1, Frontier: 8, NewPaths: 2, Matched: 10, WallNs: 5_000, Msgs: 3, Words: 40})
	rec.Record(IterSample{Phase: 1, Iteration: 2, Frontier: 4, NewPaths: 1, Matched: 11, Pull: true, WallNs: 4_000, Msgs: 2, Words: 20})
}

func newTestCollector(ranks int) *Collector {
	return NewCollector(ranks, Options{Spans: true, TimeSeries: true})
}

func TestProcObsRoundTrip(t *testing.T) {
	c := newTestCollector(4)
	fillRank(c, 2, 0)
	c.AddEvents([]Event{{Name: "hb.rtt to 0", Rank: 2, At: 1_234, Arg: 55_000}})

	po := c.Export([]int{2}, 3)
	dec, err := DecodeProcObs(po.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	// The codec does not carry the per-sample rank — RankObs.Rank does, and
	// InstallRemote restamps it — so restamp here before comparing.
	for _, ro := range dec.Ranks {
		for i := range ro.Samples {
			ro.Samples[i].Rank = ro.Rank
		}
	}
	if !reflect.DeepEqual(po, dec) {
		t.Fatalf("ProcObs did not round-trip:\n have %+v\n want %+v", dec, po)
	}
	if dec.Gen != 3 || len(dec.Ranks) != 1 || dec.Ranks[0].Rank != 2 {
		t.Fatalf("wrong envelope: %+v", dec)
	}
	if len(dec.Ranks[0].Spans) != 5 || len(dec.Ranks[0].Samples) != 2 {
		t.Fatalf("rank payload truncated: %+v", dec.Ranks[0])
	}

	// Trailing garbage must be rejected, not ignored.
	if _, err := DecodeProcObs(append(po.Encode(), 0)); err == nil {
		t.Fatal("DecodeProcObs accepted trailing bytes")
	}
}

// TestInstallRemoteOffsetAlignment is the clock-alignment property test:
// whatever the injected epoch skew and whatever offset estimate corrects
// it, installing a remote rank must preserve span nesting (no child may
// poke outside its parent) and the merged trace must stay per-track
// monotone — the two properties tracelint enforces on real merged traces.
func TestInstallRemoteOffsetAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		skew := rng.Int63n(2_000_000_000) - 1_000_000_000 // +-1s of epoch skew
		coord := newTestCollector(2)
		fillRank(coord, 0, 0)

		worker := newTestCollector(2)
		fillRank(worker, 1, skew)
		po, err := DecodeProcObs(worker.Export([]int{1}, 0).Encode())
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		coord.InstallRemote(po, -skew)

		spans := coord.Tracer(1).Spans()
		if len(spans) != 5 {
			t.Fatalf("trial %d: installed %d spans, want 5", trial, len(spans))
		}
		var solve Span
		for _, sp := range spans {
			if sp.Name == "solve" {
				solve = sp
			}
		}
		if solve.Start != 100 {
			t.Fatalf("trial %d: solve span start %d after offset, want 100 (skew %d)", trial, solve.Start, skew)
		}
		for _, sp := range spans {
			if sp.Name == "solve" || sp.Kind == KindCollective {
				continue
			}
			if sp.Start < solve.Start || sp.Start+sp.Dur > solve.Start+solve.Dur {
				t.Fatalf("trial %d: span %q [%d,%d] escapes its parent [%d,%d] under skew %d",
					trial, sp.Name, sp.Start, sp.Start+sp.Dur, solve.Start, solve.Start+solve.Dur, skew)
			}
		}
		assertTraceMonotone(t, coord)
	}
}

// assertTraceMonotone writes the collector's trace and fails the test if
// any track's complete events go back in time.
func assertTraceMonotone(t *testing.T, c *Collector) {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var tf struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Tid int     `json:"tid"`
			Ts  float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	last := map[int]float64{}
	for i, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if prev, ok := last[ev.Tid]; ok && ev.Ts < prev {
			t.Fatalf("event %d: tid %d goes back in time (%.3f after %.3f)", i, ev.Tid, ev.Ts, prev)
		}
		last[ev.Tid] = ev.Ts
	}
}

// TestInstallRemoteSharedCollector pins the loopback guard: when every
// endpoint shares one collector, re-installing a payload that re-encodes
// locally recorded ranks must change nothing — no duplicate spans, no
// duplicate events.
func TestInstallRemoteSharedCollector(t *testing.T) {
	c := newTestCollector(2)
	fillRank(c, 0, 0)
	fillRank(c, 1, 0)
	c.AddEvents([]Event{{Name: "hb.rtt to 0", Rank: 1, At: 10, Arg: 1}})

	po, err := DecodeProcObs(c.Export([]int{1}, 0).Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	c.InstallRemote(po, 500)

	if n := len(c.Tracer(1).Spans()); n != 5 {
		t.Fatalf("shared-collector install duplicated spans: %d, want 5", n)
	}
	if n := len(c.Recorder(1).Samples()); n != 2 {
		t.Fatalf("shared-collector install duplicated samples: %d, want 2", n)
	}
	if n := len(c.Events()); n != 1 {
		t.Fatalf("shared-collector install duplicated events: %d, want 1", n)
	}
}

func TestFlightDumpRoundTripAndTail(t *testing.T) {
	c := newTestCollector(1)
	tr := c.Tracer(0)
	for i := 0; i < FlightSpanTail+40; i++ {
		tr.record(Span{Kind: KindOp, Name: fmt.Sprintf("op-%d", i), Start: int64(i * 10), Dur: 5})
	}

	d := c.BuildFlightDump([]int{0}, 4, "injected: rank 2 died")
	if len(d.Ranks[0].Spans) != FlightSpanTail {
		t.Fatalf("dump kept %d spans, want the %d-span tail", len(d.Ranks[0].Spans), FlightSpanTail)
	}
	path := filepath.Join(t.TempDir(), "flight-g4-r0.dump")
	if err := d.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind after rename")
	}
	got, err := ReadFlightDump(path)
	if err != nil {
		t.Fatalf("ReadFlightDump: %v", err)
	}
	if !reflect.DeepEqual(d, got) {
		t.Fatalf("FlightDump did not round-trip:\n have %+v\n want %+v", got, d)
	}
	if got.Gen != 4 || got.Cause != "injected: rank 2 died" {
		t.Fatalf("wrong envelope: gen %d cause %q", got.Gen, got.Cause)
	}
	sp, ok := got.LastSpan(0)
	if !ok || sp.Name != fmt.Sprintf("op-%d", FlightSpanTail+39) {
		t.Fatalf("LastSpan = %+v, %v; want the final op", sp, ok)
	}

	// A flight dump is not a ProcObs and vice versa: the magics fence them.
	if _, err := DecodeProcObs(d.Encode()); err == nil {
		t.Fatal("DecodeProcObs accepted a flight dump")
	}
	if _, err := DecodeFlightDump(c.Export([]int{0}, 0).Encode()); err == nil {
		t.Fatal("DecodeFlightDump accepted a ProcObs")
	}
}
