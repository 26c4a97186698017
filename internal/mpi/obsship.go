package mpi

import "time"

// ObsShipper is the optional observability-collection capability of a
// multi-process Transport. A backend that implements it can move one
// process's encoded observability state (an internal/obs payload — the
// format stays opaque at this seam) to the coordinator process, where the
// per-process collectors are merged into one world-level artifact. The
// in-process backend never needs it: a single process already holds every
// rank's collector.
//
// The flow is one-shot per endpoint: worker processes call ShipObs after
// their ranks finish (Close ships as a last act before BYE if nobody did),
// and the coordinator calls CollectObs to gather everything its peers sent.
type ObsShipper interface {
	// SetObsProvider registers the callback that renders this process's
	// observability payload. The transport invokes it at most once — from
	// ShipObs or from the BYE-drain fallback in Close — strictly after the
	// local rank goroutines have returned, so the render may read the
	// collector without locking.
	SetObsProvider(render func() []byte)

	// ShipObs renders the payload (via the registered provider) and sends it
	// to the coordinator. Shipping is idempotent: only the first call (or
	// the Close fallback) transmits. On the coordinator it is a no-op.
	ShipObs() error

	// CollectObs waits — bounded by timeout — until every live peer's
	// payload has arrived (a peer that said BYE or died without shipping is
	// not waited for) and returns the payloads by world rank.
	CollectObs(timeout time.Duration) map[int][]byte

	// ClockOffsets returns the per-peer clock-offset estimates from the
	// heartbeat probes, by world rank: adding the offset to a peer's trace
	// timestamp maps it into this process's trace timebase. Peers without an
	// estimate yet are absent (treat as offset zero).
	ClockOffsets() map[int]int64
}
