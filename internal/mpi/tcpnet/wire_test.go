package tcpnet

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mcmdist/internal/mpi"
	"mcmdist/internal/wire"
)

// TestFrameTypeBytes pins every frame type's byte, so the committed fuzz
// corpora keep their meaning, and pins that the retired type 4 is refused
// by the frame dispatcher as an unexpected frame.
func TestFrameTypeBytes(t *testing.T) {
	want := map[byte]byte{
		frameHello: 1, frameRoster: 2, framePost: 3, frameRMAReq: 5, frameRMAResp: 6,
		frameAbort: 7, frameBye: 8, framePing: 9, framePong: 10, frameObs: 11,
	}
	for typ, b := range want {
		if typ != b {
			t.Errorf("%s frame is type %d, want %d", frameName(typ), typ, b)
		}
	}
	err := (&Net{}).handle(&peer{rank: 1}, frameRetired, retiredFinishBody())
	if err == nil || !strings.Contains(err.Error(), "unexpected frame(4) frame from rank 1") {
		t.Fatalf("type-4 frame: got %v, want an unexpected-frame error", err)
	}
}

// TestHelloRefusesV4Peer: a version-4 peer, which would still send and wait
// for FINISH frames, is refused at HELLO with the version message.
func TestHelloRefusesV4Peer(t *testing.T) {
	rv, err := Listen("127.0.0.1:0", Options{DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := rv.Coordinate(2, nil)
		done <- err
	}()
	conn, err := net.Dial("tcp", rv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hello wire.Writer
	hello.Buf = append(hello.Buf, wireMagic...)
	hello.U8(4)
	hello.U32(1)
	hello.Str("127.0.0.1:1")
	if err := writeFrame(conn, new(frameOut), frameHello, hello.Buf); err != nil {
		t.Fatal(err)
	}
	err = <-done
	if want := fmt.Sprintf("peer speaks wire version 4, this build speaks %d", wireVersion); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("coordinator accepted a v4 HELLO or refused it for another reason: %v", err)
	}
}

// TestPartRoundtrip: every payload survives writePart → readPart under both
// encodings, and the delta encoding is the smaller one on the sorted-run
// payloads POST actually carries (id streams from fold/expand exchanges).
func TestPartRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sorted := make([]int64, 2048)
	for i := range sorted {
		sorted[i] = int64(i)*3 + rng.Int63n(3)
	}
	hostile := make([]int64, 257)
	for i := range hostile {
		hostile[i] = rng.Int63() - rng.Int63()
	}
	payloads := [][]int64{
		nil,
		{},
		{0},
		{-1, 1 << 62, -(1 << 62), 0},
		sorted,
		hostile,
	}
	var free mpi.Payloads
	for pi, v := range payloads {
		for _, compress := range []bool{false, true} {
			var w wire.Writer
			writePart(&w, v, compress)
			r := wire.NewReader(w.Buf)
			got := readPart(&r, free.Take)
			if err := frameErr(&r, framePost); err != nil {
				t.Fatalf("payload %d compress=%v: decode error: %v", pi, compress, err)
			}
			if err := r.Done(); err != nil {
				t.Fatalf("payload %d compress=%v: %v", pi, compress, err)
			}
			if want, have := fmt.Sprint(v), fmt.Sprint(got); len(v) > 0 && want != have {
				t.Fatalf("payload %d compress=%v: roundtrip %s != %s", pi, compress, have, want)
			}
			if len(v) == 0 && len(got) != 0 {
				t.Fatalf("payload %d compress=%v: empty payload decoded as %v", pi, compress, got)
			}
			free.Put(got) // the next payload may decode into this one's buffer
		}
	}
	var raw, enc wire.Writer
	writePart(&raw, sorted, false)
	writePart(&enc, sorted, true)
	if len(enc.Buf)*2 >= len(raw.Buf) {
		t.Fatalf("delta encoding of a sorted run is not at least 2x smaller: %d vs %d bytes", len(enc.Buf), len(raw.Buf))
	}
}

// TestPartDecodeRejectsTruncation: a delta part whose nbytes runs past the
// buffer, or whose varint stream decodes to fewer values than count, must
// poison the reader instead of panicking or returning garbage.
func TestPartDecodeRejectsTruncation(t *testing.T) {
	var w wire.Writer
	writePart(&w, []int64{5, 9, 12, 40, 41}, true)
	for cut := 1; cut < len(w.Buf); cut++ {
		r := wire.NewReader(w.Buf[:cut])
		readPart(&r, new(mpi.Payloads).Take)
		if err := frameErr(&r, framePost); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded cleanly", cut, len(w.Buf))
		}
	}
}

// TestReadFrameChunkGuard: a length prefix far beyond the bytes that
// arrive fails the read, and the body buffer grows by at most one
// frameReadChunk past the bytes that did arrive, whether it starts empty,
// small, or already larger than they are.
func TestReadFrameChunkGuard(t *testing.T) {
	present := 5 * frameReadChunk / 2
	data := append([]byte{0, 0, 0, 0x40, framePost}, make([]byte, present)...) // body length maxFrame
	for _, stale := range [][]byte{nil, make([]byte, 7, 100), make([]byte, 10, 4*frameReadChunk)} {
		fb := frameIn{body: stale}
		if _, _, err := readFrame(bytes.NewReader(data), &fb); err == nil || !strings.Contains(err.Error(), "short POST frame") {
			t.Fatalf("truncated maxFrame-length frame: err %v, want a short-frame error", err)
		}
		if c := cap(fb.body); c > max(cap(stale), present+frameReadChunk) {
			t.Fatalf("body buffer of capacity %d grew to %d on %d body bytes", cap(stale), c, present)
		}
	}
}

// readCounter counts the Read calls made on the connection it wraps.
type readCounter struct {
	net.Conn
	reads atomic.Int64
}

func (c *readCounter) Read(b []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(b)
}

// TestReadLoopBatchesFrames: the read loop reads its connection through a
// buffered reader, so frames that arrive together — a header, its body and
// the frames queued behind them — cost far fewer reads than frames, not one
// read for each header and one for each body.
func TestReadLoopBatchesFrames(t *testing.T) {
	const frames = 32
	here, there := net.Pipe()
	defer there.Close()
	conn := &readCounter{Conn: here}
	n := &Net{rank: 0, size: 2, opts: Options{HeartbeatInterval: -1, CloseTimeout: time.Second}.withDefaults(), peers: make([]*peer, 2)}
	n.peers[1] = newPeer(1, conn)
	w := goldenWorld(t, false)
	if err := n.Bind(w); err != nil {
		t.Fatalf("bind: %v", err)
	}
	var stream bytes.Buffer
	var out frameOut
	for gen := range frames {
		var body wire.Writer
		writePost(&body, &mpi.PostMsg{Comm: "world/batch", Ranks: []int{0, 1}, Src: 1, Gen: int64(gen), Op: "allreduce",
			Parts: [][]int64{{int64(gen)}, {int64(gen)}}}, 0, false)
		if err := writeFrame(&stream, &out, framePost, body.Buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeFrame(&stream, &out, frameBye, nil); err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, there) // the endpoint's own BYE on Close
	if _, err := there.Write(stream.Bytes()); err != nil {
		t.Fatalf("writing %d frames: %v", frames+1, err)
	}
	<-n.peers[1].bye
	n.Close()
	if w.Aborted() {
		t.Fatal("the read loop failed a frame")
	}
	if got := conn.reads.Load(); got >= frames {
		t.Errorf("%d reads for %d POST frames and a BYE written at once, want fewer than %d", got, frames, frames)
	}
}
