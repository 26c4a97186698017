package core

import (
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

// obsAttach wires the observability plane into a capable transport before
// the world launches: it declares the transport's local ranks hosted on the
// collector (so the coordinator's merge never installs a payload over a
// rank recorded here — the loopback shape shares one collector), and sets
// the payload provider that ShipObs (or the BYE-drain fallback in Close)
// renders. A backend without the optional ObsShipper capability (the
// in-process oracle) gets no provider.
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
}

// obsFinish completes the cross-process collection after a successful
// solve: a worker ships its payload to the coordinator; the coordinator
// gathers every peer's payload and merges each into its collector under
// that peer's clock offset. Afterwards the coordinator's collector holds
// the whole world, so the ordinary exporters (WriteTrace, WriteSeriesCSV)
// produce world-level artifacts unchanged.
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
