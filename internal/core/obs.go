package core

import (
	"mcmdist/internal/mpi"
	"mcmdist/internal/obs"
	"mcmdist/internal/parallel"
)

// iterBaseline snapshots the cumulative per-rank counters at the top of one
// BFS iteration so obsIterEnd can turn them into per-iteration deltas.
type iterBaseline struct {
	meter mpi.Meter
	comm  mpi.CommTimes
	pool  parallel.Stats
	wall  int64
}

// obsIterBegin opens one iteration's observation: the iteration span's
// start timestamp plus, when a time-series recorder is attached, the meter
// and pool baselines. Near-free when the observability plane is off (two
// nil checks).
func (s *Solver) obsIterBegin() int64 {
	if s.rec != nil {
		s.iterBase = iterBaseline{
			meter: s.G.World.MeterSnapshot(),
			comm:  s.G.World.CommTimes(),
			pool:  s.G.RT.ThreadStats(),
			wall:  obs.Now(),
		}
	}
	return s.G.RT.Tracer().Begin()
}

// obsIterEnd closes one iteration's observation: it records the iteration
// span and appends a time-series sample with this rank's meter/comm/pool
// deltas since obsIterBegin. Always called (it is nil-safe).
func (s *Solver) obsIterEnd(t0 int64, phase, frontier, newPaths int, pull bool) {
	s.G.RT.Tracer().End(obs.KindIteration, "iteration", t0, int64(frontier))
	if s.rec == nil {
		return
	}
	meter := s.G.World.MeterSnapshot().Sub(s.iterBase.meter)
	comm := s.G.World.CommTimes().Sub(s.iterBase.comm)
	pool := s.G.RT.ThreadStats().Sub(s.iterBase.pool)
	s.rec.Record(obs.IterSample{
		Phase:        phase,
		Iteration:    s.Stats.Iterations,
		Frontier:     frontier,
		NewPaths:     newPaths,
		Matched:      s.Stats.InitCardinality + s.Stats.AugmentedPaths,
		Pull:         pull,
		WallNs:       obs.Now() - s.iterBase.wall,
		Msgs:         meter.Msgs,
		Words:        meter.Words,
		WordsEncoded: meter.WordsEnc,
		CommNs:       int64(comm.Total),
		ExposedNs:    int64(comm.Exposed),
		PoolBusyNs:   int64(pool.Busy),
		PoolSpanNs:   int64(pool.Span),
	})
}
