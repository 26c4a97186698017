package main

import (
	"math"
	"slices"
	"testing"

	"mcmdist"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {99, 0}, {100, 900}, {999, 900}, {1000, 990}, {9999, 990}, {10000, 999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for _, c := range []struct {
		perMille int
		want     float64
	}{{500, 50}, {900, 90}, {990, 99}, {1000, 100}, {0, 1}} {
		if got := percentile(xs, c.perMille); got != c.want {
			t.Errorf("percentile(1..100, %d) = %v, want %v", c.perMille, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 500); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

// handTrace has two ranks. Rank 0's compute track (tid 0) nests
// spmv.expand and spmv.fold inside spmv inside an iteration inside the solve
// span; its comm track (tid 1) holds a split-phase allreduce that starts
// inside an alltoallv and ends after it, and an allgatherv wholly inside
// both. Rank 1 has a longer spmv, so rank maxima differ by layer.
const handTrace = `{"traceEvents":[
{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"rank 0"}},
{"ph":"X","pid":0,"tid":0,"ts":0.000,"dur":100.000,"name":"mcm","cat":"solve","args":{"arg":0}},
{"ph":"X","pid":0,"tid":0,"ts":10.000,"dur":50.000,"name":"iteration","cat":"iteration","args":{"arg":1}},
{"ph":"X","pid":0,"tid":0,"ts":10.000,"dur":30.000,"name":"spmv","cat":"op","args":{"arg":0}},
{"ph":"X","pid":0,"tid":0,"ts":12.000,"dur":8.000,"name":"spmv.expand","cat":"op","args":{"arg":0}},
{"ph":"X","pid":0,"tid":0,"ts":25.000,"dur":10.000,"name":"spmv.fold","cat":"op","args":{"arg":0}},
{"ph":"X","pid":0,"tid":0,"ts":40.000,"dur":10.000,"name":"select","cat":"op","args":{"arg":0}},
{"ph":"X","pid":0,"tid":1,"ts":12.000,"dur":18.000,"name":"alltoallv","cat":"collective","args":{"arg":0}},
{"ph":"X","pid":0,"tid":1,"ts":25.000,"dur":20.000,"name":"allreduce","cat":"collective","args":{"arg":0}},
{"ph":"X","pid":0,"tid":1,"ts":26.000,"dur":2.000,"name":"allgatherv","cat":"collective","args":{"arg":0}},
{"ph":"s","pid":0,"tid":1,"ts":12.000,"name":"rendezvous","cat":"flow","id":"1"},
{"ph":"X","pid":0,"tid":2,"ts":0.000,"dur":100.000,"name":"mcm","cat":"solve","args":{"arg":0}},
{"ph":"X","pid":0,"tid":2,"ts":5.000,"dur":80.000,"name":"spmv","cat":"op","args":{"arg":0}},
{"ph":"X","pid":0,"tid":2,"ts":6.000,"dur":4.000,"name":"spmv.expand","cat":"op","args":{"arg":0}},
{"ph":"X","pid":0,"tid":3,"ts":6.000,"dur":3.000,"name":"alltoallv","cat":"collective","args":{"arg":0}},
{"ph":"X","pid":0,"tid":3,"ts":50.000,"dur":1.500,"name":"rma-get","cat":"rma","args":{"arg":8}},
{"ph":"i","pid":0,"tid":0,"ts":99.000,"name":"checkpoint","cat":"instant","s":"t","args":{"arg":0}}
],"displayTimeUnit":"ms","otherData":{"ranks":2,"dropped_spans":0}}`

func TestFoldTrace(t *testing.T) {
	f, err := foldTrace([]byte(handTrace))
	if err != nil {
		t.Fatal(err)
	}
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// Rank 0: spmv 30 - expand 8 - fold 10 = 12µs; rank 1: 80 - 4 = 76µs.
	near("spmv self", f.self["spmv"], 0.076)
	near("spmv.expand self", f.self["spmv.expand"], 0.008)
	near("spmv.fold self", f.self["spmv.fold"], 0.010)
	near("select self", f.self["select"], 0.010)
	// In-flight time is the whole span even where split-phase spans overlap.
	near("alltoallv", f.inFlight["alltoallv"], 0.018)
	near("allreduce", f.inFlight["allreduce"], 0.020)
	near("allgatherv", f.inFlight["allgatherv"], 0.002)
	near("rma", f.inFlight["rma"], 0.0015)
	if f.collectives != 3 {
		t.Errorf("collectives = %d, want 3 (rank 0)", f.collectives)
	}
	// Rank 0 leaves 100 - 50 (iteration) + 50 - 30 - 10 (ops) = 60µs of its
	// solve to no op; rank 1 leaves 20µs.
	near("unattributed %", f.unattributedPct, 60)

	// The allreduce starts inside the alltoallv and ends after it, so it is
	// not the alltoallv's child; the allgatherv lies wholly inside both and
	// is the child of the innermost, the allreduce.
	spans := []traceEvent{
		{Ts: 12, Dur: 18, Name: "alltoallv"},
		{Ts: 25, Dur: 20, Name: "allreduce"},
		{Ts: 26, Dur: 2, Name: "allgatherv"},
	}
	self := selfTimes(spans)
	if !slices.Equal(self, []float64{18, 18, 2}) {
		t.Errorf("split-phase self times = %v, want [18 18 2]", self)
	}
}

func TestFoldTraceRejectsGarbage(t *testing.T) {
	if _, err := foldTrace([]byte(`{"traceEvents":[`)); err == nil {
		t.Error("truncated trace folded without error")
	}
}

func TestFailureAccounting(t *testing.T) {
	ref := &mcmdist.Matching{MateR: []int64{1, 0, -1}, MateC: []int64{1, 0}}
	in := &instance{ref: ref}
	good := func() sample {
		return sample{mates: []*mcmdist.Matching{{
			MateR: slices.Clone(ref.MateR), MateC: slices.Clone(ref.MateC),
		}}}
	}
	for _, c := range []struct {
		name   string
		w      *workload
		s      sample
		failed int
	}{
		{"correct solve", &workloads[0], good(), 0},
		{"corrupted mate vector", &workloads[0], func() sample {
			s := good()
			s.mates[0].MateC[1] = -1
			return s
		}(), 1},
		{"one bad endpoint of four", &workloads[2], func() sample {
			s := good()
			bad := good().mates[0]
			bad.MateR[2] = 0
			s.mates = append(s.mates, good().mates[0], bad, good().mates[0])
			return s
		}(), 1},
		{"recovery without a retry", &workloads[3], func() sample {
			s := good()
			s.rec = &mcmdist.Recovery{Attempts: 1}
			return s
		}(), 1},
		{"recovery with one retry", &workloads[3], func() sample {
			s := good()
			s.rec = &mcmdist.Recovery{Attempts: 2}
			return s
		}(), 0},
	} {
		r := newResult(c.w)
		ok := r.checked(in, c.s)
		if r.attempted != 1 || r.failed != c.failed || ok != (c.failed == 0) {
			t.Errorf("%s: attempted %d failed %d ok %v, want 1, %d, %v",
				c.name, r.attempted, r.failed, ok, c.failed, c.failed == 0)
		}
	}
}

// TestSmoke runs every workload through the real code path at scale 10 for
// one round of two timed solves, traced, and checks that the program emits
// exactly the metrics BENCHMARK.json names, with its units, all finite, and
// that no check failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var ws []*workload
	var specNames, progNames []string
	for _, w := range workloads {
		if w.kind == recoverable {
			w.crashAt = 100 // a scale-10 solve enters only about 350 collectives
		}
		ws = append(ws, &w)
		progNames = append(progNames, w.name)
	}
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !slices.Equal(specNames, progNames) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program runs %v", specNames, progNames)
	}
	cfg := config{rounds: 1, minSolves: 2, trace: true, scale: 10}
	rs, err := runBenchmark(cfg, ws, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.failed != 0 || r.attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", r.w.name, r.attempted, r.failed, r.errs)
		}
	}
	for _, side := range []struct {
		spec  []specMetric
		prog  []metric
		trace bool
	}{{spec.EndToEnd, endToEnd, false}, {spec.PerLayer, perLayer, true}} {
		var specNames, progNames []string
		for _, m := range side.spec {
			specNames = append(specNames, m.Name+" "+m.Unit)
		}
		for _, m := range side.prog {
			progNames = append(progNames, m.name+" "+m.unit)
		}
		if !slices.Equal(specNames, progNames) {
			t.Errorf("BENCHMARK.json lists %v,\nthe program emits %v", specNames, progNames)
		}
		s := summarize(rs, side.trace)
		if !s.Correct {
			t.Error("summary not correct")
		}
		for _, r := range rs {
			for _, m := range side.spec {
				v, ok := s.Metrics[r.w.name+"."+m.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: metric %s missing or not finite: %+v", r.w.name, m.Name, v)
				}
			}
		}
	}
}
