package wire

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestWriterReaderRoundTrip: every field the Writer encodes reads back
// through the Reader, in order, with the input consumed exactly.
func TestWriterReaderRoundTrip(t *testing.T) {
	var w Writer
	w.U8(0xab)
	w.U32(0xdeadbeef)
	w.U64(math.MaxUint64)
	w.I64(-5)
	w.Uvarint(300)
	w.Str("héllo")
	w.Bytes([]byte{1, 2, 3})
	w.Str("")
	w.U32(2) // a counted sequence of two u64
	w.U64(7)
	w.U64(8)
	delta := []int64{-1, 0, 1 << 40, 3}
	w.U32(uint32(EncodedLen(delta)))
	w.Buf = AppendEncoded(w.Buf, delta)

	r := NewReader(w.Buf)
	got := []any{r.U8(), r.U32(), r.U64(), r.I64(), r.Uvarint(), r.Str(), r.Bytes(), r.Str()}
	want := []any{byte(0xab), uint32(0xdeadbeef), uint64(math.MaxUint64), int64(-5), uint64(300), "héllo", []byte{1, 2, 3}, ""}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fields read back as %v, want %v", got, want)
	}
	n := r.Count(8)
	seq := []uint64{r.U64(), r.U64()}
	if n != 2 || seq[0] != 7 || seq[1] != 8 {
		t.Fatalf("sequence read back as %d %v", n, seq)
	}
	dst := []int64{9, 9, 9, 9, 9, 9}
	v := r.Delta(len(delta), int(r.U32()), func(n int) []int64 { return dst[:n] })
	if !reflect.DeepEqual(v, delta) {
		t.Fatalf("delta stream read back as %v, want %v", v, delta)
	}
	if &v[0] != &dst[0] {
		t.Fatal("delta stream did not decode into the destination take returned")
	}
	if err := r.Done(); err != nil {
		t.Fatalf("exactly consumed input: %v", err)
	}
}

// TestReaderGuards: a count that the remaining bytes cannot hold, whether a
// sequence count or a delta-stream count, poisons the reader with the count
// error before anything is sized from it — a delta stream's destination is
// never asked for — and the rejecting read allocates nothing. After a failure every read returns zero and the first error
// sticks; a clean read reports exact consumption and trailing bytes.
func TestReaderGuards(t *testing.T) {
	u32 := func(v uint32, tail int) []byte {
		w := Writer{Buf: make([]byte, 0, 4+tail)}
		w.U32(v)
		w.Buf = append(w.Buf, make([]byte, tail)...)
		return w.Buf
	}
	delta := AppendEncoded(nil, []int64{5, 9, 12})
	type guardCase struct {
		name    string
		in      []byte
		minSize int // > 0: read a sequence count with this element size
		count   int // otherwise read a delta stream of count values
		nbytes  int // in nbytes bytes
		want    int // the count, or number of values, read
		wantErr error
		left    int // bytes left unread after a clean read
		taken   int // destinations a delta read asked for
	}
	// read reads the count and then its elements, as a decoder would. It is
	// a direct call, so the reader stays on the stack.
	read := func(r *Reader, tc *guardCase) int {
		if tc.minSize > 0 {
			n := r.Count(tc.minSize)
			r.Next(n * tc.minSize)
			return n
		}
		return len(r.Delta(tc.count, tc.nbytes, func(n int) []int64 {
			tc.taken++
			return make([]int64, n)
		}))
	}
	cases := []guardCase{
		{name: "count u32 max", in: u32(math.MaxUint32, 64), minSize: 1, wantErr: errCount},
		{name: "count times size past the end", in: u32(3, 16), minSize: 8, wantErr: errCount},
		{name: "count exactly fits", in: u32(2, 16), minSize: 8, want: 2},
		{name: "count leaves trailing bytes", in: u32(2, 17), minSize: 8, want: 2, left: 1},
		{name: "count field truncated", in: []byte{1, 0}, minSize: 1, wantErr: errShort},
		{name: "delta count past its bytes", in: delta, count: len(delta) + 1, nbytes: len(delta), wantErr: errCount},
		{name: "delta count u32 max", in: delta, count: math.MaxUint32, nbytes: len(delta), wantErr: errCount},
		{name: "delta bytes past the end", in: delta, count: 1, nbytes: len(delta) + 1, wantErr: errShort},
		{name: "delta negative length", in: delta, count: 1, nbytes: -1, wantErr: errShort},
		{name: "delta exactly fits", in: delta, count: 3, nbytes: len(delta), want: 3},
		{name: "delta leaves trailing bytes", in: append(append([]byte(nil), delta...), 0, 0), count: 3, nbytes: len(delta), want: 3, left: 2},
	}
	for i := range cases {
		tc := &cases[i]
		r := NewReader(tc.in)
		if got := read(&r, tc); got != tc.want || !errors.Is(r.Err(), tc.wantErr) {
			t.Fatalf("%s: read %d with error %v, want %d with %v", tc.name, got, r.Err(), tc.want, tc.wantErr)
		}
		err := r.Done()
		switch {
		case tc.wantErr != nil:
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("%s: Done reports %v, want the sticky %v", tc.name, err, tc.wantErr)
			}
			if tc.taken != 0 {
				t.Fatalf("%s: the rejecting read asked for %d destinations", tc.name, tc.taken)
			}
			if r.U8() != 0 || r.U64() != 0 || r.Str() != "" || r.Count(1) != 0 || r.Delta(0, 0, nil) != nil || r.Err() != tc.wantErr {
				t.Fatalf("%s: a poisoned reader read a value or lost its first error (%v)", tc.name, r.Err())
			}
			if allocs := testing.AllocsPerRun(50, func() {
				r := NewReader(tc.in)
				read(&r, tc)
			}); allocs != 0 {
				t.Fatalf("%s: the rejecting read allocates %v times, want 0", tc.name, allocs)
			}
		case tc.left == 0 && err != nil:
			t.Fatalf("%s: exactly consumed input reports %v", tc.name, err)
		case tc.left != 0 && (err == nil || !strings.Contains(err.Error(), "trailing bytes")):
			t.Fatalf("%s: %d unread bytes, Done reports %v", tc.name, tc.left, err)
		}
	}
}
