package mcmdist

import (
	"io"

	"mcmdist/internal/obs"
)

// Observe configures the observability plane of a distributed run: per-rank
// span tracing (Chrome trace_event / Perfetto export) and a per-iteration
// time-series. Attach one via Options.Observe; the resulting data is
// returned on Stats.Obs. Both default to off, and a nil Observe keeps the
// solver hot path at its untraced cost.
type Observe struct {
	// Spans records begin/end spans of every solve, phase, BFS iteration,
	// Table I primitive, collective, and RMA operation into a fixed-capacity
	// per-rank ring buffer (oldest spans are overwritten once full).
	Spans bool
	// SpanCap overrides the per-rank ring capacity; 0 means the default
	// (65536 spans per rank).
	SpanCap int
	// TimeSeries records one sample per rank per BFS iteration: frontier
	// size, paths found, bytes moved, exposed vs hidden communication time,
	// and worker-pool utilization.
	TimeSeries bool
}

// collector builds the internal collector for an effective rank count, or
// nil when o is nil.
func (o *Observe) collector(procs int) *obs.Collector {
	if o == nil {
		return nil
	}
	if procs < 1 {
		procs = 1
	}
	return obs.NewCollector(procs, obs.Options{
		Spans:      o.Spans,
		SpanCap:    o.SpanCap,
		TimeSeries: o.TimeSeries,
	})
}

// ObsReport is the observability data of one run, returned on Stats.Obs
// when Options.Observe was set.
//
// In-process runs observe every rank directly. Over a multi-process
// transport each process observes only its own ranks during the solve, but
// at solve end the workers ship their observations to the coordinator,
// which aligns the timestamps with its heartbeat-estimated clock offsets
// and merges everything: rank 0's report then covers the whole world —
// one trace with a track pair per world rank (heartbeat RTT probes included
// as hb.rtt instants) and a rank-merged time-series — while a worker's
// report keeps covering only its local ranks. See docs/OBSERVABILITY.md.
type ObsReport struct {
	col *obs.Collector
}

func newObsReport(col *obs.Collector) *ObsReport {
	if col == nil {
		return nil
	}
	return &ObsReport{col: col}
}

// WriteTrace writes the recorded spans as Chrome trace_event JSON — one
// compute track and one communication track per rank, flow arrows tying
// each collective's participants together — loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing. Requires Observe.Spans.
func (r *ObsReport) WriteTrace(w io.Writer) error {
	return r.col.WriteTrace(w)
}

// WriteTimeSeriesCSV writes the per-iteration time-series as CSV: every
// rank's samples first, then the cross-rank merged samples (rank -1).
// Requires Observe.TimeSeries.
func (r *ObsReport) WriteTimeSeriesCSV(w io.Writer) error {
	return r.col.WriteSeriesCSV(w)
}

// DroppedSpans reports how many spans the per-rank rings overwrote; nonzero
// means the trace shows only the most recent Observe.SpanCap spans per rank.
func (r *ObsReport) DroppedSpans() uint64 {
	return r.col.Dropped()
}
