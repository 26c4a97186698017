package tcpnet

// Allocation contracts of the data plane: once the peer's queue and read
// buffer have grown, framing a POST and reading a frame allocate nothing,
// and once the read loop's envelope and the world's free list have grown,
// neither does decoding a POST.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"mcmdist/internal/mpi"
	"mcmdist/internal/wire"
)

// TestPostIntoWarmQueueAllocatesNothing: Post encodes each frame straight
// into the peer's pending queue, raw and delta-varint alike, so a queue
// that already has the room takes a POST without one allocation. No
// flusher runs here; each round empties the queue by hand.
func TestPostIntoWarmQueueAllocatesNothing(t *testing.T) {
	for _, compress := range []bool{false, true} {
		n, there := pipeNet(Options{HeartbeatInterval: -1})
		defer there.Close()
		if compress {
			n.world.Store(goldenWorld(t, true))
		}
		p := n.peers[1]
		msg := goldenPost()
		if err := n.Post(msg); err != nil {
			t.Fatal(err)
		}
		framed := len(p.qbuf)
		allocs := testing.AllocsPerRun(50, func() {
			p.qbuf = p.qbuf[:0]
			if err := n.Post(msg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("compress=%v: %v allocations per POST into a warm queue, want 0", compress, allocs)
		}
		if len(p.qbuf) != framed {
			t.Errorf("compress=%v: queue holds %d bytes after one POST, want %d", compress, len(p.qbuf), framed)
		}
	}
}

// TestReadFrameIntoWarmBufferAllocatesNothing: readFrame reads into the
// connection's own header and body buffer, so once the body buffer has
// grown to a frame's size, reading that frame again allocates nothing —
// straight from the stream, and through the read loop's pooled buffered
// reader once it is warm.
func TestReadFrameIntoWarmBufferAllocatesNothing(t *testing.T) {
	var frame bytes.Buffer
	var body wire.Writer
	writePost(&body, goldenPost(), 1, false)
	if err := writeFrame(&frame, new(frameOut), framePost, body.Buf); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(frame.Bytes())
	b := wirePool.Get().(*wireBufs)
	defer func() { b.rd.Reset(nil); wirePool.Put(b) }()
	var fb frameIn
	for _, buffered := range []bool{false, true} {
		var src io.Reader = r
		if buffered {
			src = b.rd
		}
		read := func() {
			r.Reset(frame.Bytes())
			b.rd.Reset(r)
			typ, got, err := readFrame(src, &fb)
			if err != nil || typ != framePost || !bytes.Equal(got, body.Buf) {
				t.Fatalf("buffered=%v: type %d, %d bytes, err %v", buffered, typ, len(got), err)
			}
		}
		read()
		if allocs := testing.AllocsPerRun(50, read); allocs != 0 {
			t.Errorf("buffered=%v: %v allocations per frame read into a warm buffer, want 0", buffered, allocs)
		}
	}
}

// TestWriteFrameAllocatesNothing: a direct-path frame goes out from the
// connection's own header array and gather list, without copying the body
// into a fresh buffer.
func TestWriteFrameAllocatesNothing(t *testing.T) {
	var out frameOut
	body := encodePong(123456789, 123450000)
	for _, b := range [][]byte{body, nil} {
		if allocs := testing.AllocsPerRun(50, func() {
			if err := writeFrame(io.Discard, &out, framePong, b); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%d-byte body: %v allocations per frame write, want 0", len(b), allocs)
		}
	}
}

// TestDecodePostIntoWarmEnvelopeAllocatesNothing: the read loop decodes
// every POST into its connection's envelope, reusing its slices and
// strings, and each part into a buffer from the world's free list, which
// the mailbox refills when the part's generation retires. Once both are
// warm, a POST decodes without one allocation, raw and delta-varint alike.
func TestDecodePostIntoWarmEnvelopeAllocatesNothing(t *testing.T) {
	for _, compress := range []bool{false, true} {
		var body wire.Writer
		writePost(&body, goldenPost(), 1, compress)
		var msg mpi.PostMsg
		var free mpi.Payloads
		// deliverAndRetire is what DeliverPost and the generation's
		// retirement do with the present parts.
		deliverAndRetire := func() {
			if err := decodePost(body.Buf, &msg, free.Take); err != nil {
				t.Fatal(err)
			}
			for _, p := range msg.Parts {
				if p != nil {
					free.Put(p)
				}
			}
		}
		deliverAndRetire()
		allocs := testing.AllocsPerRun(50, deliverAndRetire)
		if allocs != 0 {
			t.Errorf("compress=%v: %v allocations per POST decoded into a warm envelope, want 0", compress, allocs)
		}
		want := goldenPost()
		if got := fmt.Sprint(msg.Comm, msg.Ranks, msg.Src, msg.Gen, msg.Op, msg.Parts[0] != nil, msg.Parts[1] != nil, msg.Parts[1]); got != fmt.Sprint(want.Comm, want.Ranks, want.Src, want.Gen, want.Op, false, true, want.Parts[1]) {
			t.Errorf("compress=%v: warm decode gave %s", compress, got)
		}
	}
}

// TestForgedPartCountTakesNothing: a POST part whose raw or delta count
// the frame's remaining bytes cannot hold fails the decode before the free
// list is asked for a buffer, so a forged count can neither allocate nor
// drain the list.
func TestForgedPartCountTakesNothing(t *testing.T) {
	envelope := func(part func(w *wire.Writer)) []byte {
		var w wire.Writer
		w.Str("world")
		writeRanks(&w, []int{0, 1})
		w.U32(0)
		w.I64(3)
		w.Str("alltoallv")
		w.U32(2)
		w.U8(0)
		writePart(&w, nil, false)
		w.U8(1)
		part(&w)
		return w.Buf
	}
	forged := map[string][]byte{
		"raw count u32 max":  envelope(func(w *wire.Writer) { w.U8(encRaw); w.U32(math.MaxUint32); w.I64(1) }),
		"raw count one past": envelope(func(w *wire.Writer) { w.U8(encRaw); w.U32(3); w.I64(1); w.I64(2) }),
		"delta count u32 max": envelope(func(w *wire.Writer) {
			w.U8(encDelta)
			w.U32(math.MaxUint32)
			w.U32(2)
			w.U8(2)
			w.U8(2)
		}),
		"delta count past its bytes": envelope(func(w *wire.Writer) {
			w.U8(encDelta)
			w.U32(3)
			w.U32(2)
			w.U8(2)
			w.U8(2)
		}),
	}
	for name, body := range forged {
		taken := 0
		take := func(n int) []int64 {
			if n > 0 {
				taken++
			}
			return make([]int64, n)
		}
		var msg mpi.PostMsg
		if err := decodePost(body, &msg, take); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if taken != 0 {
			t.Errorf("%s: the free list was asked for %d buffers", name, taken)
		}
	}
}

// TestAbsentSlotCarriesNothing: an absent POST slot decodes to a nil part,
// and it must be exactly what writePost writes for one, an empty raw part.
// An absent slot carrying anything else fails the frame as malformed
// before the free list is asked for a buffer, even an empty one.
func TestAbsentSlotCarriesNothing(t *testing.T) {
	var ok mpi.PostMsg
	if err := decodePost(postWithAbsentSlot(func(w *wire.Writer) { writePart(w, nil, false) }), &ok, new(mpi.Payloads).Take); err != nil {
		t.Fatalf("writePost's absent slot: %v", err)
	}
	if ok.Parts[0] != nil || ok.Parts[1] == nil {
		t.Fatalf("absent slot decoded to %v (nil %v), present slot nil %v", ok.Parts[0], ok.Parts[0] == nil, ok.Parts[1] == nil)
	}
	forged := map[string][]byte{
		"raw part":         postWithAbsentSlot(func(w *wire.Writer) { writePart(w, []int64{4, 5}, false) }),
		"empty delta part": postWithAbsentSlot(func(w *wire.Writer) { writePart(w, nil, true) }),
		"delta part":       postWithAbsentSlot(func(w *wire.Writer) { writePart(w, []int64{4, 5}, true) }),
		"unknown encoding": postWithAbsentSlot(func(w *wire.Writer) { w.U8(7); w.U32(0) }),
	}
	for name, body := range forged {
		taken := 0
		take := func(n int) []int64 {
			taken++
			return make([]int64, n)
		}
		var msg mpi.PostMsg
		err := decodePost(body, &msg, take)
		if err == nil || !strings.Contains(err.Error(), "malformed POST frame") {
			t.Errorf("%s: decode gave %v, want a malformed POST frame", name, err)
		}
		if taken != 0 {
			t.Errorf("%s: the free list was asked for %d buffers", name, taken)
		}
	}
}
