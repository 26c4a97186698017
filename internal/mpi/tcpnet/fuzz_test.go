package tcpnet

// Fuzz targets for the MCMNET1 codec: every frame-body decoder plus the
// stream-level readFrame. The contract under fuzzing is the one readLoop
// relies on — arbitrary peer bytes either decode to a well-formed value or
// return an error, and never panic, hang, or allocate unboundedly. Seeds
// cover one valid encoding of every frame kind (built with the real wire.Writer
// encoders, so they stay in sync with the wire format), a request for the
// reserved RMA op 3, plus the malformed shapes the decoders reject; go test -fuzz grows the corpus from there
// under testdata/fuzz/.

import (
	"bytes"
	"fmt"
	"testing"

	"mcmdist/internal/mpi"
	"mcmdist/internal/wire"
)

// seedBodies builds one valid body per frame kind with the production
// encoders — the corpus entries that start the fuzzer inside the happy path —
// plus the body the retired type 4 (FINISH) carried until wire version 5.
func seedBodies() [][]byte {
	var post wire.Writer
	post.Str("world")
	writeRanks(&post, []int{0, 1, 2})
	post.U32(1) // src
	post.I64(7) // gen
	post.Str("allgatherv")
	post.U32(3)
	post.U8(1)
	writePart(&post, []int64{3, 5, 9}, false)
	post.U8(0)
	writePart(&post, nil, false)
	post.U8(1)
	writePart(&post, []int64{100, 101, 104, 109}, true) // delta-varint branch

	var rmaReq wire.Writer
	rmaReq.U64(42)
	rmaReq.Str("mate")
	rmaReq.U32(1)
	rmaReq.U8(2)
	rmaReq.I64(16)
	rmaReq.I64(4)
	writeInts(&rmaReq, []int64{1, 2, 3, 4})
	rmaReq.U8(1)
	rmaReq.I64(-1)

	// An RMA_REQ for op 3, the retired compare-and-swap, in the v6 layout:
	// it decodes, and the target's window registry refuses the op.
	var rmaRetired wire.Writer
	rmaRetired.U64(44)
	rmaRetired.Str("world/win@0")
	rmaRetired.U32(1)
	rmaRetired.U8(3)
	rmaRetired.I64(0)
	rmaRetired.I64(0)
	writeInts(&rmaRetired, nil)
	rmaRetired.U8(0)
	rmaRetired.I64(0)

	var rmaOK wire.Writer
	rmaOK.U64(42)
	rmaOK.U8(1)
	writeInts(&rmaOK, []int64{9, 9})
	rmaOK.I64(-3)

	var rmaErr wire.Writer
	rmaErr.U64(43)
	rmaErr.U8(0)
	rmaErr.Str("window out of range")

	var abort wire.Writer
	abort.U32(2)
	abort.Str("injected: link 1->2 dropped")

	var hello wire.Writer
	hello.Buf = append(hello.Buf, wireMagic...)
	hello.U8(wireVersion)
	hello.U32(3)
	hello.Str("127.0.0.1:9301")

	var roster wire.Writer
	roster.U32(2)
	roster.Str("127.0.0.1:9301")
	roster.Str("127.0.0.1:9302")
	roster.Bytes([]byte(`{"v":3,"rmat":"g500","procs":2}`))

	ping := encodePing(123456789)
	pong := encodePong(123456789, 123450000)
	obsFrame := encodeObs(2, []byte("MCMOBS1 not really, but shaped like a payload"))

	return [][]byte{post.Buf, retiredFinishBody(), rmaReq.Buf, rmaRetired.Buf, rmaOK.Buf, rmaErr.Buf, abort.Buf, hello.Buf, roster.Buf, ping, pong, obsFrame}
}

// frameRetired is the type byte FINISH carried until wire version 5.
const frameRetired byte = 4

// retiredFinishBody is a FINISH body as wire version 4 framed it under
// type 4: str comm | u32 n | n × u32 rank | u32 member | u64 gen.
func retiredFinishBody() []byte {
	var b wire.Writer
	b.Str("world")
	writeRanks(&b, []int{0, 1})
	b.U32(1)
	b.I64(3)
	return b.Buf
}

// FuzzFrameDecode throws one body at every decoder. No decoder may panic on
// any input; whether it returns a value or an error is its own business.
// The frame dispatcher must also refuse every body under the reserved type
// 4, without panicking.
func FuzzFrameDecode(f *testing.F) {
	for _, body := range seedBodies() {
		f.Add(body)
	}
	f.Add([]byte{})
	f.Add([]byte("MCMNET1"))              // hello cut off after the magic
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // a length field pointing past the body
	f.Fuzz(func(t *testing.T, body []byte) {
		var msg mpi.PostMsg
		if err := decodePost(body, &msg, new(mpi.Payloads).Take); err == nil {
			if len(msg.Parts) != len(msg.Ranks) {
				t.Fatalf("POST decoded with parts/ranks mismatch: %d parts, %d ranks", len(msg.Parts), len(msg.Ranks))
			}
		}
		if err := (&Net{}).handle(&peer{rank: 1}, frameRetired, body); err == nil {
			t.Fatal("a frame of the reserved type 4 was accepted")
		}
		if _, req, err := decodeRMAReq(body); err == nil && req == nil {
			t.Fatal("RMA_REQ decoded successfully to nil")
		}
		if _, resp, _, ok, err := decodeRMAResp(body); err == nil && ok && resp == nil {
			t.Fatal("RMA_RESP ok decoded to nil")
		}
		decodeAbort(body)
		parseHello(body)
		parseRoster(body)
		decodePing(body)
		decodePong(body)
		if _, payload, err := decodeObs(body); err == nil && len(payload) > len(body) {
			t.Fatalf("OBS decoded %d payload bytes from %d input bytes", len(payload), len(body))
		}
	})
}

// FuzzReadFrame feeds an arbitrary byte stream to the frame reader. A
// corrupt length prefix must fail the read, not drive an unbounded
// allocation; a well-formed prefix must hand back exactly the body. The
// reuse arm reads the same bytes through a buffer left over from an earlier
// frame: it must give the same result as a fresh buffer, and neither buffer
// may grow more than one frameReadChunk past the input.
func FuzzReadFrame(f *testing.F) {
	frame := func(typ byte, body []byte) []byte {
		var buf bytes.Buffer
		writeFrame(&buf, new(frameOut), typ, body)
		return buf.Bytes()
	}
	for _, body := range seedBodies() {
		f.Add(frame(framePost, body))
	}
	f.Add(frame(frameBye, nil))
	f.Add(frame(framePing, nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, byte(framePost)})                    // huge length, no body
	f.Add(append([]byte{0, 0, 0, 0x40, byte(framePost)}, seedBodies()[0]...)) // maxFrame length, short body
	f.Fuzz(func(t *testing.T, data []byte) {
		var fresh frameIn
		typ, body, err := readFrame(bytes.NewReader(data), &fresh)
		if c := cap(fresh.body); c > len(data)+frameReadChunk {
			t.Fatalf("a fresh buffer grew to %d bytes on %d input bytes", c, len(data))
		}
		stale := frameIn{body: staleBody(data)}
		before := cap(stale.body)
		typ2, body2, err2 := readFrame(bytes.NewReader(data), &stale)
		if c := cap(stale.body); c > max(before, len(data)+frameReadChunk) {
			t.Fatalf("a stale buffer of %d bytes grew to %d on %d input bytes", before, c, len(data))
		}
		if (err == nil) != (err2 == nil) || err != nil && err.Error() != err2.Error() {
			t.Fatalf("stale buffer read gave error %v, fresh read %v", err2, err)
		}
		if err != nil {
			return
		}
		if typ2 != typ || !bytes.Equal(body2, body) {
			t.Fatalf("stale buffer read gave type %d and %d bytes, fresh read type %d and %d bytes", typ2, len(body2), typ, len(body))
		}
		if len(body) > len(data) {
			t.Fatalf("readFrame produced %d body bytes from %d input bytes", len(body), len(data))
		}
		// A frame that reads must re-read identically from its own re-encoding.
		var buf bytes.Buffer
		if err := writeFrame(&buf, new(frameOut), typ, body); err != nil {
			t.Fatalf("re-encoding a read frame: %v", err)
		}
		typ3, body3, err := readFrame(&buf, &stale)
		if err != nil || typ3 != typ || !bytes.Equal(body3, body) {
			t.Fatalf("frame did not round-trip: %v", err)
		}
	})
}

// staleBody builds the reuse arm's leftover buffer from the input itself:
// the input reversed as contents, and a capacity anywhere from zero to
// twice the input's length, picked by hashing the input.
func staleBody(data []byte) []byte {
	var h uint32 = 2166136261
	for _, b := range data {
		h = (h ^ uint32(b)) * 16777619
	}
	c := int(h % uint32(2*len(data)+9))
	s := make([]byte, min(c, len(data)), c)
	for i := range s {
		s[i] = data[len(data)-1-i]
	}
	return s
}

// FuzzDecodePostDelivery goes one level deeper than decodePost: a POST that
// decodes must also be deliverable — its shape invariants are what
// World.DeliverPost indexes by without re-checking. The reuse arm decodes
// the same bytes the way the read loop does, into an envelope left over
// from an earlier POST and with part buffers from a free list that already
// holds stale ones: it must give the fresh decode's result.
func FuzzDecodePostDelivery(f *testing.F) {
	f.Add(seedBodies()[0])
	f.Add(postWithAbsentSlot(func(w *wire.Writer) { writePart(w, []int64{4, 5}, false) }))
	f.Fuzz(func(t *testing.T, body []byte) {
		var fresh mpi.PostMsg
		err := decodePost(body, &fresh, func(n int) []int64 { return make([]int64, n) })
		stale, free := staleEnvelope(t, body)
		err2 := decodePost(body, stale, free.Take)
		if (err == nil) != (err2 == nil) || err != nil && err.Error() != err2.Error() {
			t.Fatalf("decoding into a stale envelope gave error %v, a fresh one %v", err2, err)
		}
		if err != nil {
			return
		}
		for _, msg := range []*mpi.PostMsg{&fresh, stale} {
			if len(msg.Parts) != len(msg.Ranks) {
				t.Fatalf("POST decoded with %d parts for %d ranks", len(msg.Parts), len(msg.Ranks))
			}
		}
		// A part is present iff it is non-nil: present parts decode to
		// empty-but-non-nil slices at worst, and the free list hands out
		// the same for 0. %v prints nil and empty alike, so the presence
		// flags are compared on their own.
		if got, want := fmt.Sprintf("%q %v %d %d %q %v %v", stale.Comm, stale.Ranks, stale.Src, stale.Gen, stale.Op, present(stale.Parts), stale.Parts),
			fmt.Sprintf("%q %v %d %d %q %v %v", fresh.Comm, fresh.Ranks, fresh.Src, fresh.Gen, fresh.Op, present(fresh.Parts), fresh.Parts); got != want {
			t.Fatalf("decoding into a stale envelope gave\n  %s\nwant\n  %s", got, want)
		}
	})
}

// present reports which parts of a decoded POST are present (non-nil).
func present(parts [][]int64) []bool {
	flags := make([]bool, len(parts))
	for i, p := range parts {
		flags[i] = p != nil
	}
	return flags
}

// postWithAbsentSlot builds a two-member POST body whose member-0 slot is
// absent and carries what slot writes (writePost writes an empty raw part
// there; a forged frame may carry more), and whose member-1 slot holds a
// present raw part.
func postWithAbsentSlot(slot func(w *wire.Writer)) []byte {
	var w wire.Writer
	w.Str("world")
	writeRanks(&w, []int{0, 1})
	w.U32(0)
	w.I64(3)
	w.Str("alltoallv")
	w.U32(2)
	w.U8(0)
	slot(&w)
	w.U8(1)
	writePart(&w, []int64{6, 7}, false)
	return w.Buf
}

// staleEnvelope builds the reuse arm's leftovers: an envelope that decoded
// the seed POST, whose parts then went back to a free list (as a retiring
// generation returns them), plus a stale buffer of every class up to the
// input's length, filled with garbage derived from the input.
func staleEnvelope(t *testing.T, body []byte) (*mpi.PostMsg, *mpi.Payloads) {
	t.Helper()
	free := new(mpi.Payloads)
	msg := new(mpi.PostMsg)
	if err := decodePost(seedBodies()[0], msg, free.Take); err != nil {
		t.Fatalf("decoding the seed POST: %v", err)
	}
	for _, p := range msg.Parts {
		if p != nil {
			free.Put(p)
		}
	}
	junk := ^int64(len(body))
	for n := 1; n <= 2*len(body)+1; n *= 2 {
		buf := make([]int64, n)
		for i := range buf {
			buf[i] = junk
		}
		free.Put(buf)
	}
	return msg, free
}
