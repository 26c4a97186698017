package tcpnet

// Allocation contracts of the data plane: once the peer's queue and read
// buffer have grown, framing a POST and reading a frame allocate nothing.

import (
	"bytes"
	"io"
	"testing"

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
// grown to a frame's size, reading that frame again allocates nothing.
func TestReadFrameIntoWarmBufferAllocatesNothing(t *testing.T) {
	var frame bytes.Buffer
	var body wire.Writer
	writePost(&body, goldenPost(), 1, false)
	if err := writeFrame(&frame, new(frameOut), framePost, body.Buf); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(frame.Bytes())
	var fb frameIn
	if _, _, err := readFrame(r, &fb); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		r.Reset(frame.Bytes())
		typ, got, err := readFrame(r, &fb)
		if err != nil || typ != framePost || !bytes.Equal(got, body.Buf) {
			t.Fatalf("re-read: type %d, %d bytes, err %v", typ, len(got), err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per frame read into a warm buffer, want 0", allocs)
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
