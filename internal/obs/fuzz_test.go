package obs

// Fuzz targets for the cross-process observation codecs. Their decoders
// face bytes from the network (the tcpnet OBS frame body) and from disk
// (flight-recorder dumps found after a crash), so the contract is the
// fuzz-hardened one: arbitrary input either decodes to a well-formed value
// or errors — never a panic, never an unbounded allocation. Seeds are built
// with the production encoders so they track the format.

import (
	"testing"
)

// seedObs builds one valid encoding of each payload kind from a collector
// with every plane populated.
func seedObs() [][]byte {
	c := NewCollector(2, Options{Spans: true, TimeSeries: true, Metrics: NewRegistry()})
	fillRank(c, 0, 0)
	fillRank(c, 1, 0)
	c.AddEvents([]Event{{Name: "hb.rtt to 1", Rank: 0, At: 77, Arg: 52_000}})
	c.Registry().Histogram("mcm_heartbeat_rtt_seconds_link_0_1", "rtt", []float64{1e-4, 1e-2}).Observe(5e-3)
	return [][]byte{
		c.Export([]int{0, 1}, 2).Encode(),
		(&ProcObs{}).Encode(),
		c.BuildFlightDump([]int{0, 1}, 2, "injected: rank 1 died").Encode(),
		(&FlightDump{Cause: "watchdog: deadlock"}).Encode(),
		typeClashPayload(),
	}
}

// FuzzObsDecode throws one input at both decoders. A payload that decodes
// must re-encode and re-decode to the same value (the coordinator trusts
// decoded payloads enough to install them), and no input may panic.
func FuzzObsDecode(f *testing.F) {
	for _, b := range seedObs() {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte("MCMOBS1"))
	f.Add([]byte("MCMFDR1"))
	f.Add([]byte("MCMOBS1\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff")) // count fields past the buffer
	f.Fuzz(func(t *testing.T, data []byte) {
		if po, err := DecodeProcObs(data); err == nil {
			dec, err := DecodeProcObs(po.Encode())
			if err != nil {
				t.Fatalf("decoded ProcObs does not re-decode: %v", err)
			}
			if len(dec.Ranks) != len(po.Ranks) || len(dec.Metrics) != len(po.Metrics) || len(dec.Events) != len(po.Events) {
				t.Fatal("ProcObs did not round-trip through re-encoding")
			}
			// The coordinator installs decoded payloads; doing so on a fresh
			// collector must not panic whatever the rank numbers claim.
			NewCollector(2, Options{Spans: true, TimeSeries: true, Metrics: NewRegistry()}).InstallRemote(po, 123)
		}
		if d, err := DecodeFlightDump(data); err == nil {
			if _, err := DecodeFlightDump(d.Encode()); err != nil {
				t.Fatalf("decoded FlightDump does not re-decode: %v", err)
			}
			for _, ro := range d.Ranks {
				d.LastSpan(ro.Rank)
			}
		}
	})
}
