package tcpnet

// Golden wire bytes: one frame of every type, produced by the write paths
// the endpoint really uses (the POST queue and its flusher, the direct
// sends, the bootstrap writers) and compared byte for byte with
// testdata/golden-frames.txt. The file pins the MCMNET1 v6 format: a change
// that moves any byte fails here, however the encoders are written.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"mcmdist/internal/mpi"
	"mcmdist/internal/wire"
)

// recConn is a connection that records every byte written to it and
// answers nothing. Once it has recorded a whole BYE frame it hangs up, as a
// peer that drained politely would, so an endpoint's Close ends promptly.
type recConn struct {
	mu     sync.Mutex
	out    []byte
	closed chan struct{}
	once   sync.Once
}

func newRecConn() *recConn { return &recConn{closed: make(chan struct{})} }

func (c *recConn) Read([]byte) (int, error) {
	<-c.closed
	return 0, io.EOF
}

func (c *recConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.out = append(c.out, b...)
	fs := splitFrames(c.out)
	bye := len(fs) > 0 && fs[len(fs)-1][4] == frameBye
	c.mu.Unlock()
	if bye {
		c.Close()
	}
	return len(b), nil
}

func (c *recConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// frames returns the whole frames recorded so far, header included.
func (c *recConn) frames() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return splitFrames(append([]byte(nil), c.out...))
}

func (c *recConn) LocalAddr() net.Addr              { return nil }
func (c *recConn) RemoteAddr() net.Addr             { return nil }
func (c *recConn) SetDeadline(time.Time) error      { return nil }
func (c *recConn) SetReadDeadline(time.Time) error  { return nil }
func (c *recConn) SetWriteDeadline(time.Time) error { return nil }

// splitFrames cuts a byte stream into its whole frames; a trailing partial
// frame is left out.
func splitFrames(b []byte) [][]byte {
	var out [][]byte
	for len(b) >= 5 {
		n := 5 + int(binary.LittleEndian.Uint32(b))
		if len(b) < n {
			break
		}
		out = append(out, b[:n])
		b = b[n:]
	}
	return out
}

// captureFrames runs act on a 2-rank endpoint hosting rank whose one peer
// is a recConn, bound to w (nil is fine), closes the endpoint, and returns
// every frame the peer received. Close always ends the stream with BYE.
func captureFrames(t *testing.T, rank int, w *mpi.World, act func(n *Net, p *peer, c *recConn)) [][]byte {
	t.Helper()
	c := newRecConn()
	n := &Net{rank: rank, size: 2, opts: Options{HeartbeatInterval: -1}.withDefaults(), peers: make([]*peer, 2)}
	n.peers[1-rank] = newPeer(1-rank, c)
	if err := n.Bind(w); err != nil {
		t.Fatalf("bind: %v", err)
	}
	act(n, n.peers[1-rank], c)
	n.Close()
	fs := c.frames()
	if len(fs) == 0 || fs[len(fs)-1][4] != frameBye {
		t.Fatalf("capture did not end with BYE: %d frames", len(fs))
	}
	return fs
}

// captureOne is captureFrames for an act that sends exactly one frame.
func captureOne(t *testing.T, rank int, w *mpi.World, act func(n *Net, p *peer, c *recConn)) []byte {
	t.Helper()
	fs := captureFrames(t, rank, w, act)
	if len(fs) != 2 {
		t.Fatalf("capture holds %d frames, want one plus BYE", len(fs))
	}
	return fs[0]
}

// awaitFrame polls c until it has recorded a whole frame.
func awaitFrame(t *testing.T, c *recConn) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(c.frames()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no frame was written")
		}
		time.Sleep(time.Millisecond)
	}
}

// goldenWorld runs a finished 1-rank in-process world and returns it: its
// Compress setting is what Post reads, and its window registry keeps the
// window "world/win@0" over {7, 8, 9} that RMA_RESP frames are served from.
func goldenWorld(t *testing.T, compress bool) *mpi.World {
	t.Helper()
	var w *mpi.World
	_, err := mpi.RunTransport(mpi.RunConfig{Compress: compress}, mpi.NewInproc(1), func(c *mpi.Comm) error {
		mpi.WinCreate(c, []int64{7, 8, 9})
		w = c.World()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// goldenPost is the POST of every capture: member 1's part is the one
// rank 0 ships to rank 1; member 0's travels as an absent part.
func goldenPost() *mpi.PostMsg {
	return &mpi.PostMsg{Comm: "world/split@3/c1", Ranks: []int{0, 1}, Src: 0, Gen: 7, Op: "allgatherv",
		Parts: [][]int64{{1, 2}, {100, 101, 104, 109, -5, 1 << 40}}}
}

// rmaReqBody hand-builds an RMA_REQ body for the handler to serve.
func rmaReqBody(id uint64, win string, op mpi.RMAOp, off, n int) []byte {
	var b wire.Writer
	b.U64(id)
	b.Str(win)
	b.U32(0)
	b.U8(byte(op))
	b.I64(int64(off))
	b.I64(int64(n))
	writeInts(&b, nil)
	b.U8(0)
	b.I64(0)
	return b.Buf
}

// goldenCaptures produces the frame of every golden entry.
func goldenCaptures(t *testing.T) map[string][]byte {
	got := map[string][]byte{}
	post := func(n *Net, _ *peer, _ *recConn) {
		if err := n.Post(goldenPost()); err != nil {
			t.Fatalf("post: %v", err)
		}
	}
	got["POST-raw"] = captureOne(t, 0, nil, post)
	got["POST-delta"] = captureOne(t, 0, goldenWorld(t, true), post)

	got["RMA_REQ"] = captureOne(t, 0, nil, func(n *Net, _ *peer, c *recConn) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			n.RMA(1, &mpi.RMAReq{Win: "world/win@0", Member: 1, Op: mpi.RMAPut, Off: 1, N: 2,
				Data: []int64{40, -2}, Code: mpi.OpCodeSum, Operand: -1})
		}()
		awaitFrame(t, c)
		n.failPending(io.EOF) // the reply never comes; release the caller
		<-done
	})
	win := goldenWorld(t, false)
	got["RMA_RESP-ok"] = captureOne(t, 0, win, func(n *Net, p *peer, _ *recConn) {
		if err := n.handle(p, frameRMAReq, rmaReqBody(42, "world/win@0", mpi.RMAGet, 1, 2)); err != nil {
			t.Fatalf("serving get: %v", err)
		}
	})
	got["RMA_RESP-error"] = captureOne(t, 0, win, func(n *Net, p *peer, _ *recConn) {
		if err := n.handle(p, frameRMAReq, rmaReqBody(43, "world/win@9", mpi.RMAGet, 0, 1)); err != nil {
			t.Fatalf("serving get: %v", err)
		}
	})

	got["ABORT"] = captureOne(t, 0, nil, func(n *Net, _ *peer, _ *recConn) {
		n.Abort("rank 0: injected crash")
	})
	got["PING"] = captureOne(t, 0, nil, func(n *Net, p *peer, _ *recConn) {
		n.sendQuiet(p, framePing, encodePing(123456789), time.Now().Add(time.Second))
	})
	got["PONG"] = captureOne(t, 0, nil, func(n *Net, p *peer, _ *recConn) {
		n.sendQuiet(p, framePong, encodePong(123456789, 123450000), time.Now().Add(time.Second))
	})
	got["OBS"] = captureOne(t, 1, nil, func(n *Net, _ *peer, _ *recConn) {
		n.SetObsProvider(func() []byte { return []byte("MCMOBS1 stand-in payload") })
		if err := n.ShipObs(); err != nil {
			t.Fatalf("ship: %v", err)
		}
	})
	fs := captureFrames(t, 0, nil, func(*Net, *peer, *recConn) {})
	got["BYE"] = fs[len(fs)-1]

	c := newRecConn()
	if err := writeHello(c, 3, "127.0.0.1:9301", Options{}.withDefaults()); err != nil {
		t.Fatal(err)
	}
	got["HELLO"] = c.frames()[0]
	got["ROSTER"] = captureRoster(t)
	return got
}

// rosterCoordAddr stands in for the rendezvous address in the golden
// ROSTER: the kernel picks the real port, so captureRoster writes this
// address over it, fixing up the two length fields it shifts.
const rosterCoordAddr = "127.0.0.1:9300"

// captureRoster runs a real 2-rank rendezvous, dials in as rank 1 with a
// fixed mesh address, and returns the ROSTER frame the coordinator sends.
func captureRoster(t *testing.T) []byte {
	t.Helper()
	rv, err := Listen("127.0.0.1:0", Options{DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		n   *Net
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := rv.Coordinate(2, []byte(`{"v":7,"engine":"auto"}`))
		done <- result{n, err}
	}()
	conn, err := net.Dial("tcp", rv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeHello(conn, 1, "127.0.0.1:9302", Options{}.withDefaults()); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	hdr := make([]byte, 5)
	if _, err := io.ReadFull(conn, hdr); err != nil {
		t.Fatalf("reading roster header: %v", err)
	}
	body := make([]byte, binary.LittleEndian.Uint32(hdr))
	if _, err := io.ReadFull(conn, body); err != nil {
		t.Fatalf("reading roster body: %v", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	r.n.teardown()

	// body = u32 size | u32 len | rendezvous address | rest
	addr := rv.Addr()
	if len(body) < 8+len(addr) || string(body[8:8+len(addr)]) != addr {
		t.Fatalf("ROSTER does not open with the rendezvous address %q", addr)
	}
	var canon wire.Writer
	canon.Buf = append(canon.Buf, body[:4]...)
	canon.Str(rosterCoordAddr)
	canon.Buf = append(canon.Buf, body[8+len(addr):]...)
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(canon.Buf))), append([]byte{hdr[4]}, canon.Buf...)...)
}

// TestGoldenFrames compares the frame of every type with the recorded
// bytes. A mismatch prints the frame as written, in the file's format.
func TestGoldenFrames(t *testing.T) {
	f, err := os.Open("testdata/golden-frames.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string][]byte{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hx, ok := strings.Cut(line, " ")
		b, err := hex.DecodeString(hx)
		if !ok || err != nil {
			t.Fatalf("bad golden line %q", line)
		}
		want[name] = b
	}
	got := goldenCaptures(t)
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("no golden bytes for %s; written:\n%s %x", name, name, g)
			continue
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s frame changed; written:\n%s %x\nwant:\n%s %x", name, name, g, name, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("golden entry %s has no capture", name)
		}
	}
}
