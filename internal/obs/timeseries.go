package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// IterSample is one per-rank measurement of one level-synchronous BFS
// iteration — the row granularity of Figs. 5–8 style analysis. SPMD-
// replicated quantities (frontier, paths, matched) are identical across
// ranks; the meter and timing fields are this rank's own deltas over the
// iteration.
type IterSample struct {
	// Rank is the recording rank; -1 marks a cross-rank merged sample.
	Rank int `json:"rank"`
	// Phase is the augmenting phase the iteration belongs to (1-based).
	Phase int `json:"phase"`
	// Iteration is the global BFS iteration number (1-based, monotone
	// across phases).
	Iteration int `json:"iteration"`
	// Frontier is the number of active column vertices entering the
	// iteration.
	Frontier int `json:"frontier"`
	// NewPaths is the number of augmenting paths discovered this
	// iteration.
	NewPaths int `json:"new_paths"`
	// Matched is the cardinality so far: initialization plus all paths
	// augmented up to this sample.
	Matched int `json:"matched"`
	// Pull reports whether the direction-optimizing solver ran this
	// iteration in pull mode.
	Pull bool `json:"pull"`
	// WallNs is the iteration wall time in nanoseconds.
	WallNs int64 `json:"wall_ns"`
	// Msgs and Words are the communication meter deltas (α messages,
	// β words) this rank moved during the iteration.
	Msgs  int64 `json:"msgs"`
	Words int64 `json:"words"`
	// WordsEncoded is the delta-varint encoded counterpart of Words (the
	// Meter.WordsEnc delta); zero when the run does not compress.
	WordsEncoded int64 `json:"words_encoded"`
	// CommNs is the total request-in-flight time; ExposedNs the part the
	// rank actually spent blocked (the rest was hidden behind compute).
	CommNs    int64 `json:"comm_ns"`
	ExposedNs int64 `json:"exposed_ns"`
	// PoolBusyNs and PoolSpanNs are the worker-pool telemetry deltas;
	// busy/span per thread is the pool utilization for the iteration.
	PoolBusyNs int64 `json:"pool_busy_ns"`
	PoolSpanNs int64 `json:"pool_span_ns"`
}

// IterRecorder accumulates one rank's iteration samples. Like Tracer it is
// single-writer (the owning rank goroutine) and nil-safe.
type IterRecorder struct {
	rank    int
	samples []IterSample
}

// Record appends one sample.
func (r *IterRecorder) Record(s IterSample) {
	if r == nil {
		return
	}
	s.Rank = r.rank
	r.samples = append(r.samples, s)
}

// Samples returns this rank's samples in recording order. Call after the
// owning rank has finished.
func (r *IterRecorder) Samples() []IterSample {
	if r == nil {
		return nil
	}
	return r.samples
}

// PerRankSeries returns every rank's samples concatenated, ordered by
// (phase, iteration, rank).
func (c *Collector) PerRankSeries() []IterSample {
	if c == nil {
		return nil
	}
	var out []IterSample
	for _, r := range c.recs {
		out = append(out, r.Samples()...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Iteration != out[j].Iteration {
			return out[i].Iteration < out[j].Iteration
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// Series merges the per-rank samples into one row per iteration: SPMD
// fields from rank order, wall and comm times as rank maxima (the critical
// path), meter and pool fields summed across ranks. Merged rows carry
// Rank = -1.
func (c *Collector) Series() []IterSample {
	if c == nil {
		return nil
	}
	byIter := make(map[int]*IterSample)
	var order []int
	for _, rec := range c.recs {
		for _, s := range rec.Samples() {
			m, ok := byIter[s.Iteration]
			if !ok {
				merged := s
				merged.Rank = -1
				byIter[s.Iteration] = &merged
				order = append(order, s.Iteration)
				continue
			}
			if s.WallNs > m.WallNs {
				m.WallNs = s.WallNs
			}
			if s.CommNs > m.CommNs {
				m.CommNs = s.CommNs
			}
			if s.ExposedNs > m.ExposedNs {
				m.ExposedNs = s.ExposedNs
			}
			m.Msgs += s.Msgs
			m.Words += s.Words
			m.WordsEncoded += s.WordsEncoded
			m.PoolBusyNs += s.PoolBusyNs
			m.PoolSpanNs += s.PoolSpanNs
		}
	}
	sort.Ints(order)
	out := make([]IterSample, 0, len(order))
	for _, it := range order {
		out = append(out, *byIter[it])
	}
	return out
}

// WriteSeriesCSV writes every rank's samples (plus the merged rows,
// Rank = -1) as CSV with a header row. The direction column spells Pull as
// "push" or "pull", so CSV consumers need no boolean decoding convention.
func (c *Collector) WriteSeriesCSV(w io.Writer) error {
	if c == nil {
		return fmt.Errorf("obs: no collector (time-series was not enabled)")
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "rank,phase,iteration,frontier,new_paths,matched,pull,direction,wall_ns,msgs,words,words_encoded,comm_ns,exposed_ns,pool_busy_ns,pool_span_ns")
	row := func(s IterSample) {
		pull, dir := 0, "push"
		if s.Pull {
			pull, dir = 1, "pull"
		}
		fmt.Fprintf(bw, "%d,%d,%d,%d,%d,%d,%d,%s,%d,%d,%d,%d,%d,%d,%d,%d\n",
			s.Rank, s.Phase, s.Iteration, s.Frontier, s.NewPaths, s.Matched, pull, dir,
			s.WallNs, s.Msgs, s.Words, s.WordsEncoded, s.CommNs, s.ExposedNs, s.PoolBusyNs, s.PoolSpanNs)
	}
	for _, s := range c.PerRankSeries() {
		row(s)
	}
	for _, s := range c.Series() {
		row(s)
	}
	return bw.Flush()
}
