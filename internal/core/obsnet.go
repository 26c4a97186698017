package core

import (
	"fmt"
	"sort"
	"time"

	"mcmdist/internal/mpi"
	"mcmdist/internal/obs"
)

// obsCollectTimeout bounds how long the coordinator waits for its peers'
// observability payloads at solve end. Workers ship the moment their ranks
// return, so the wait is normally a few milliseconds; the bound only
// matters when a peer dies in the window between solving and shipping.
const obsCollectTimeout = 5 * time.Second

// rttBuckets is the bucket ladder of the heartbeat RTT histograms: loopback
// round trips sit in the tens of microseconds, injected slow links in the
// tens of milliseconds, so the ladder spans both.
var rttBuckets = []float64{
	25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3, 1,
}

// obsMeterPoints renders a communication meter as the leaf obs package's
// generic name/value pairs, the form meters take in shipped observations
// and flight dumps.
func obsMeterPoints(m mpi.Meter) []obs.MeterPoint {
	return []obs.MeterPoint{
		{Name: "msgs", Value: m.Msgs},
		{Name: "words", Value: m.Words},
		{Name: "work", Value: m.Work},
		{Name: "words_enc", Value: m.WordsEnc},
	}
}

// obsAttach wires the observability plane into a capable transport before
// the world launches: it declares the transport's local ranks hosted on the
// collector (so the coordinator's merge never installs a payload over a
// rank recorded here — the loopback shape shares one collector), and sets
// the payload provider that ShipObs (or the BYE-drain fallback in Close)
// renders and the heartbeat RTT observer feeding one histogram per directed
// link — which is what makes a FaultPlan slow link visible on
// the metrics endpoint. The last two are no-ops on backends without the
// optional capabilities (the in-process oracle needs neither).
func obsAttach(tr mpi.Transport, col *obs.Collector) {
	if col == nil {
		return
	}
	col.Host(tr.LocalRanks())
	if sh, ok := tr.(mpi.ObsShipper); ok {
		sh.SetObsProvider(func() []byte {
			return col.Export(tr.LocalRanks(), 0).Encode()
		})
	}
	ro, ok := tr.(mpi.RTTObservable)
	if !ok {
		return
	}
	reg := col.Registry()
	if reg == nil {
		return
	}
	local := tr.LocalRanks()[0]
	ro.SetRTTObserver(func(peer int, rttNs int64) {
		reg.Histogram(
			fmt.Sprintf("mcm_heartbeat_rtt_seconds_link_%d_%d", local, peer),
			"Heartbeat PING round-trip time on the directed link.",
			rttBuckets).Observe(float64(rttNs) / 1e9)
	})
}

// obsFinish completes the cross-process collection after a successful
// solve: a worker ships its payload to the coordinator; the coordinator
// gathers every peer's payload and merges each into its collector under
// that peer's clock offset. Afterwards the coordinator's collector holds
// the whole world, so the ordinary exporters (WriteTrace, WriteSeriesCSV,
// WritePrometheus) produce world-level artifacts unchanged.
func obsFinish(tr mpi.Transport, col *obs.Collector) {
	if col == nil {
		return
	}
	sh, ok := tr.(mpi.ObsShipper)
	if !ok {
		return
	}
	if tr.LocalRanks()[0] != 0 {
		sh.ShipObs()
		return
	}
	payloads := sh.CollectObs(obsCollectTimeout)
	offsets := sh.ClockOffsets()
	ranks := make([]int, 0, len(payloads))
	for r := range payloads {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks) // deterministic merge order
	for _, r := range ranks {
		po, err := obs.DecodeProcObs(payloads[r])
		if err != nil {
			continue // a malformed payload loses that peer's view, not the solve
		}
		col.InstallRemote(po, offsets[r])
	}
}
