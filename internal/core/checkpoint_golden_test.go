package core

// Golden checkpoint bytes: one checkpoint built from fixed literals,
// compared byte for byte with testdata/golden-checkpoint.txt. The file pins
// MCMCKPT2: a change that moves any byte fails here, however the codec is
// written. The golden must also decode back to its literal, and every
// strict prefix of it, as well as the golden with one trailing byte, must
// fail to decode.

import (
	"bytes"
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"testing"

	"mcmdist/internal/semiring"
)

// goldenCheckpoint sets every header field, and its mate vectors mix None
// runs, sorted runs, a backward step and a large id, so the delta stream
// carries one- and multi-byte varints.
func goldenCheckpoint() *Checkpoint {
	return &Checkpoint{
		Phase:       5,
		Cardinality: 4,
		ConfigHash:  0x0123456789abcdef,
		Engine:      "bfs-graft", // the recorded bytes spell this name; decoding does not check it
		N1:          6,
		N2:          5,
		MateR:       []int64{3, semiring.None, 0, 1, semiring.None, 1 << 33},
		MateC:       []int64{2, 3, semiring.None, 0, 5},
	}
}

func TestGoldenCheckpoint(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden-checkpoint.txt")
	if err != nil {
		t.Fatal(err)
	}
	var golden []byte
	for _, line := range strings.Split(string(raw), "\n") {
		name, hx, ok := strings.Cut(strings.TrimSpace(line), " ")
		if ok && name == checkpointMagic {
			if golden, err = hex.DecodeString(hx); err != nil {
				t.Fatalf("bad golden line %q", line)
			}
		}
	}
	ck := goldenCheckpoint()
	enc := ck.Encode()
	if golden == nil {
		t.Fatalf("no golden bytes for %s; written:\n%s %x", checkpointMagic, checkpointMagic, enc)
	}
	if !bytes.Equal(enc, golden) {
		t.Errorf("checkpoint encoding changed; written:\n%s %x\nwant:\n%s %x", checkpointMagic, enc, checkpointMagic, golden)
	}
	if len(enc) != ck.EncodedSize() {
		t.Errorf("encoded %d bytes, EncodedSize says %d", len(enc), ck.EncodedSize())
	}
	got, err := DecodeCheckpoint(golden)
	if err != nil {
		t.Fatalf("golden does not decode: %v", err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Errorf("golden decodes to\n %+v\nwant\n %+v", got, ck)
	}
	for cut := 0; cut < len(golden); cut++ {
		if _, err := DecodeCheckpoint(golden[:cut]); err == nil {
			t.Fatalf("golden cut to %d of %d bytes decoded cleanly", cut, len(golden))
		}
	}
	if _, err := DecodeCheckpoint(append(append([]byte(nil), golden...), 0)); err == nil {
		t.Error("golden with one trailing byte decoded cleanly")
	}
}
