package wire

// Fuzz target for the delta-varint decoder, the other half of what a hostile
// or corrupt peer can put on the wire (the tcp backend feeds it every
// compressed POST part). Decode must never panic, and anything it accepts
// must survive a semantic round trip through the encoder.

import (
	"reflect"
	"testing"
)

// FuzzDecode drives Decode with arbitrary streams and counts. Each varint is
// at least one byte, so the loop is bounded by len(src) no matter how large
// count claims to be — that boundedness is part of what this target guards.
func FuzzDecode(f *testing.F) {
	f.Add(0, []byte{})
	f.Add(3, AppendEncoded(nil, []int64{3, 5, 9}))
	f.Add(4, AppendEncoded(nil, []int64{100, 101, 104, 109}))
	f.Add(2, AppendEncoded(nil, []int64{-1 << 62, 1<<62 - 1}))
	f.Add(1, []byte{0x80})                 // truncated varint
	f.Add(1, []byte{0x00, 0x00})           // trailing byte
	f.Add(1<<30, []byte{0x02, 0x02, 0x02}) // count far beyond the stream
	f.Fuzz(func(t *testing.T, count int, src []byte) {
		v, err := Decode(nil, count, src)
		if err != nil {
			return
		}
		if count >= 0 && len(v) != count {
			t.Fatalf("Decode returned %d values for count %d without error", len(v), count)
		}
		// Whatever decoded is a value stream the codec must own completely:
		// encode it back and the bytes must decode to the same values. (The
		// bytes themselves may differ — Uvarint accepts overlong encodings
		// the encoder never emits.)
		again, err := Decode(nil, len(v), AppendEncoded(nil, v))
		if err != nil {
			t.Fatalf("re-decoding the re-encoding failed: %v", err)
		}
		if !reflect.DeepEqual(v, again) {
			t.Fatalf("semantic round trip diverged:\n first %v\n again %v", v, again)
		}
	})
}
