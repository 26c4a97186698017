package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// traceFold is one traced solve folded into per-layer times, each the
// maximum over ranks of the rank's sum, in milliseconds (matching how
// Stats.WallByOp reports its primitives).
type traceFold struct {
	// self maps an op span name to its self time: the span's duration minus
	// the part its child spans on the same track cover.
	self map[string]float64
	// inFlight maps a collective name, or "rma" for every one-sided
	// operation, to its total time from post to completion.
	inFlight map[string]float64
	// collectives counts collective spans.
	collectives int
	// unattributedPct is the share of the solve span covered by no op span.
	unattributedPct float64
}

type traceEvent struct {
	Ph   string  `json:"ph"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
}

// eps absorbs the rounding of ts and dur, which the trace writes separately
// at nanosecond precision in microsecond units.
const eps = 0.002

// foldTrace folds a Chrome trace_event JSON document as ObsReport.WriteTrace
// writes it: track 2r holds rank r's solve, phase, iteration and op spans and
// track 2r+1 its collective and RMA spans. On the communication track a
// split-phase collective may start inside another and end after it; only a
// span that lies wholly inside another counts as its child.
func foldTrace(data []byte) (traceFold, error) {
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return traceFold{}, fmt.Errorf("trace: %w", err)
	}
	tracks := map[int][]traceEvent{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			tracks[ev.Tid] = append(tracks[ev.Tid], ev)
		}
	}
	type rankSums struct {
		self, inFlight map[string]float64
		collectives    int
		solve, notOp   float64
	}
	ranks := map[int]*rankSums{}
	for tid, spans := range tracks {
		r := ranks[tid/2]
		if r == nil {
			r = &rankSums{self: map[string]float64{}, inFlight: map[string]float64{}}
			ranks[tid/2] = r
		}
		for i, self := range selfTimes(spans) {
			sp := spans[i]
			switch sp.Cat {
			case "op":
				r.self[sp.Name] += self
			case "collective":
				r.inFlight[sp.Name] += sp.Dur
				r.collectives++
			case "rma":
				r.inFlight["rma"] += sp.Dur
			case "solve":
				r.solve += sp.Dur
				r.notOp += self
			case "phase", "iteration":
				r.notOp += self
			}
		}
	}
	f := traceFold{self: map[string]float64{}, inFlight: map[string]float64{}}
	for _, r := range ranks {
		for k, v := range r.self {
			f.self[k] = max(f.self[k], v/1e3)
		}
		for k, v := range r.inFlight {
			f.inFlight[k] = max(f.inFlight[k], v/1e3)
		}
		f.collectives = max(f.collectives, r.collectives)
		if r.solve > 0 {
			f.unattributedPct = max(f.unattributedPct, 100*r.notOp/r.solve)
		}
	}
	return f, nil
}

// selfTimes sorts one track's spans by start (parents first on ties) and
// returns each span's duration minus the durations of its direct children,
// a child being a span wholly inside its innermost enclosing span.
func selfTimes(spans []traceEvent) []float64 {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Ts != spans[j].Ts {
			return spans[i].Ts < spans[j].Ts
		}
		return spans[i].Dur > spans[j].Dur
	})
	self := make([]float64, len(spans))
	var open []int // spans not yet ended, in start order
	for i, sp := range spans {
		self[i] = sp.Dur
		kept := open[:0]
		for _, o := range open {
			if spans[o].Ts+spans[o].Dur > sp.Ts+eps {
				kept = append(kept, o)
			}
		}
		open = kept
		for k := len(open) - 1; k >= 0; k-- {
			if p := spans[open[k]]; sp.Ts+sp.Dur <= p.Ts+p.Dur+eps {
				self[open[k]] -= sp.Dur
				break
			}
		}
		open = append(open, i)
	}
	return self
}
