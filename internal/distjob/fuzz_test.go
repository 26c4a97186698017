package distjob

// Fuzz target for the job-spec decoder. A worker decodes whatever blob the
// rendezvous hands it, inline Matrix Market included, so arbitrary input
// must decode to a valid spec or error, never panic.

import (
	"bytes"
	"testing"

	"mcmdist/internal/core"
)

// FuzzSpecDecode decodes arbitrary bytes; whatever decodes must re-encode,
// and the re-encoding must be a fixed point of Decode then Encode.
func FuzzSpecDecode(f *testing.F) {
	for _, s := range []*Spec{
		{RMAT: "g500", Scale: 7, Config: core.Config{Procs: 4, Init: core.InitDynMinDegree, Permute: true, Seed: 1}},
		{MTX: "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n",
			Config:  core.Config{Procs: 1, Engine: core.EngineBFSSingleSource, Direction: core.DirectionAuto, Compress: true, FlightDir: "d"},
			Recover: true, Generation: 1, Checkpoint: []byte("MCMCKPT2"), ObsSpans: true},
	} {
		blob, err := s.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`{"v":5,"rmat":"g500","procs":4,"max_restarts":3}`))
	f.Add([]byte(`{"v":6,"rmat":"g500","procs":4,"no_overlap":true,"pull_threshold":0.5}`))
	f.Add([]byte(`{"v":7,"rmat":"g500","procs":4,"obs_spans":true,"obs_metrics":true}`))
	f.Add([]byte(`{"v":8,"rmat":"g500","procs":4,"init":"bogus"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		blob, err := s.Encode()
		if err != nil {
			t.Fatalf("decoded spec does not re-encode: %v", err)
		}
		again, err := Decode(blob)
		if err != nil {
			t.Fatalf("re-encoded spec does not decode: %v", err)
		}
		blob2, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("encoding is not a fixed point:\n first %s\n again %s", blob, blob2)
		}
	})
}
