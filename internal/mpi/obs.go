package mpi

import (
	"errors"

	"mcmdist/internal/obs"
)

// SetTracer attaches t as this rank's span tracer: from now on every
// collective completion, progressive ones included, RMA op and injected fault on
// this rank records into t. Each rank goroutine must set (and later read)
// only its own tracer — the world keeps one slot per rank precisely so no
// two goroutines ever share one. A nil t turns tracing off for the rank.
//
// All communicators of a rank (world, row, column) share the slot, so a
// single SetTracer on any handle covers them all.
//
// Observability collection is strictly per-process: tracers and world-plane
// events never cross the transport. Each process traces only the ranks it
// hosts (a Comm handle exists only for locally hosted ranks, so the slots of
// remote ranks are structurally unreachable), and a whole-world trace over a
// multi-process backend is assembled by merging each process's output —
// obs.Collector outputs are rank-tagged, so the merge is a concatenation.
func (c *Comm) SetTracer(t *obs.Tracer) {
	w := c.st.world
	if w == nil {
		return
	}
	if !w.isLocalRank(c.worldRank) {
		panic("mpi: SetTracer for a rank not hosted by this process")
	}
	w.obsTracers[c.worldRank] = t
}

// tracer returns this rank's span tracer (nil when tracing is off). The
// lookup is one slice index — cheap enough for every collective entry.
func (c *Comm) tracer() *obs.Tracer {
	w := c.st.world
	if w == nil || c.worldRank >= len(w.obsTracers) {
		return nil
	}
	return w.obsTracers[c.worldRank]
}

// addObsEvent appends one world-plane instant (abort, deadlock) under the
// world lock. Rank -1 attributes the event to the world as a whole.
func (w *World) addObsEvent(name string, rank int, arg int64) {
	w.mu.Lock()
	w.obsEvents = append(w.obsEvents, obs.Event{Name: name, Rank: rank, At: obs.Now(), Arg: arg})
	w.mu.Unlock()
}

// RecordObsEvent appends one world-plane instant at the current trace time,
// attributed to rank (-1 for the world as a whole). Exported for transports:
// the heartbeat plane records its RTT samples here, because the event list
// is mutex-protected and safe from any goroutine — unlike the per-rank span
// tracers, which are single-writer by contract.
func (w *World) RecordObsEvent(name string, rank int, arg int64) {
	w.addObsEvent(name, rank, arg)
}

// ObsEvents returns the world-plane events recorded so far (abort causes,
// deadlock diagnoses). Callers hand them to an obs.Collector after the
// world joins. Like tracers, events are per-process: each process records
// only what it observed locally (a propagated abort appears in every
// process, attributed by the RemoteAbortError cause on the receiving side),
// and cross-process aggregation happens outside the transport.
func (w *World) ObsEvents() []obs.Event {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]obs.Event, len(w.obsEvents))
	copy(out, w.obsEvents)
	return out
}

// obsAbortEvent classifies an abort cause for the trace: watchdog deadlocks
// and injected faults get their own instant names so they stand out on the
// runtime track.
func (w *World) obsAbortEvent(cause error) {
	name, rank := "abort", -1
	var de *DeadlockError
	var re *RankError
	switch {
	case errors.As(cause, &de):
		name = "deadlock"
	case errors.As(cause, &re):
		rank = re.Rank
		if errors.Is(re, ErrInjectedCrash) || errors.Is(re, ErrInjectedRMAFailure) {
			name = "fault-abort"
		}
	}
	w.addObsEvent(name, rank, 0)
}
