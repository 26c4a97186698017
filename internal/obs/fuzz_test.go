package obs

// Fuzz targets for the cross-process observation codecs. Their decoders
// face bytes from the network (the tcpnet OBS frame body) and from disk
// (flight-recorder dumps found after a crash), so the contract is the
// fuzz-hardened one: arbitrary input either decodes to a well-formed value
// or errors — never a panic, never an unbounded allocation. Seeds are built
// with the production encoders so they track the format.

import (
	"bytes"
	"testing"
)

// oldMagics are the magics of earlier formats: MCMOBS1 still ended in a
// metrics section, and MCMOBS2 and MCMFDR1 still carried meter points and a
// direction string per sample. Payloads under them must fail to decode: a
// coordinator refuses a shipment from an older worker, and a supervisor an
// older dump, instead of misreading it.
var oldMagics = []string{"MCMOBS1", "MCMOBS2", "MCMFDR1"}

// seedObs builds one valid encoding of each payload kind from a collector
// with every plane populated.
func seedObs() [][]byte {
	c := NewCollector(2, Options{Spans: true, TimeSeries: true})
	fillRank(c, 0, 0)
	fillRank(c, 1, 0)
	c.AddEvents([]Event{{Name: "hb.rtt to 1", Rank: 0, At: 77, Arg: 52_000}})
	return [][]byte{
		c.Export([]int{0, 1}, 2).Encode(),
		(&ProcObs{}).Encode(),
		c.BuildFlightDump([]int{0, 1}, 2, "injected: rank 1 died").Encode(),
		(&FlightDump{Cause: "watchdog: deadlock"}).Encode(),
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
	f.Add([]byte(procObsMagic))
	f.Add([]byte(flightMagic))
	f.Add([]byte(procObsMagic + "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff")) // count fields past the buffer
	// Current bodies under the old magics: only the magic tells them apart.
	for _, m := range oldMagics {
		f.Add([]byte(m))
		f.Add(append([]byte(m), (&ProcObs{}).Encode()[len(procObsMagic):]...))
		f.Add(append([]byte(m), (&FlightDump{}).Encode()[len(flightMagic):]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		po, err := DecodeProcObs(data)
		d, ferr := DecodeFlightDump(data)
		for _, m := range oldMagics {
			if (err == nil || ferr == nil) && bytes.HasPrefix(data, []byte(m)) {
				t.Fatalf("%s payload decoded cleanly", m)
			}
		}
		if err == nil {
			dec, err := DecodeProcObs(po.Encode())
			if err != nil {
				t.Fatalf("decoded ProcObs does not re-decode: %v", err)
			}
			if len(dec.Ranks) != len(po.Ranks) || len(dec.Events) != len(po.Events) {
				t.Fatal("ProcObs did not round-trip through re-encoding")
			}
			// The coordinator installs decoded payloads; doing so on a fresh
			// collector must not panic whatever the rank numbers claim.
			NewCollector(2, Options{Spans: true, TimeSeries: true}).InstallRemote(po, 123)
		}
		if ferr == nil {
			if _, err := DecodeFlightDump(d.Encode()); err != nil {
				t.Fatalf("decoded FlightDump does not re-decode: %v", err)
			}
			for _, ro := range d.Ranks {
				d.LastSpan(ro.Rank)
			}
		}
	})
}
