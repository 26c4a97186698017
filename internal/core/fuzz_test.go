package core

// Fuzz target for the checkpoint decoder. Its bytes come from disk and, in a
// supervised multi-process solve, from the job spec a restarted worker
// receives, so arbitrary input must decode to a well-formed checkpoint or
// error — never panic, and never allocate beyond what the blob's own length
// can back.

import (
	"encoding/binary"
	"reflect"
	"testing"

	"mcmdist/internal/semiring"
)

// FuzzDecodeCheckpoint decodes arbitrary bytes; whatever decodes must
// survive a re-encode and decode unchanged.
func FuzzDecodeCheckpoint(f *testing.F) {
	good := (&Checkpoint{Phase: 2, Cardinality: 2, ConfigHash: 7, Engine: EngineBFS,
		N1: 3, N2: 2, MateR: []int64{1, semiring.None, 0}, MateC: []int64{2, 0}}).Encode()
	forged := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(forged[len(checkpointMagic)+3*8:], 1<<40) // N1
	f.Add(good)
	f.Add(forged)
	f.Add((&Checkpoint{}).Encode())
	f.Add([]byte(checkpointMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		again, err := DecodeCheckpoint(ck.Encode())
		if err != nil {
			t.Fatalf("decoded checkpoint does not re-decode: %v", err)
		}
		if !reflect.DeepEqual(ck, again) {
			t.Fatalf("round trip diverged:\n first %+v\n again %+v", ck, again)
		}
	})
}
