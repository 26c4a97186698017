// Package tcpnet is the TCP backend of the mpi package's Transport seam:
// one OS process per rank, full-mesh TCP connections, and a versioned
// length-prefixed codec for the []int64 mailbox payloads. Rank bootstrap is
// a rendezvous at rank 0 — it listens, every other rank dials in and
// announces itself, and rank 0 replies with the full roster (plus an opaque
// job-configuration blob) from which the peers wire up the remaining mesh
// edges among themselves.
//
// The backend moves exactly the two traffic kinds of the Transport
// contract — collective posts and one-sided RMA operations — so everything
// above the seam (metering, CommTimes, fault injection, the watchdog,
// tracing) behaves identically to the in-process oracle; the conformance
// suite in package mpi pins that bit-for-bit. Below the seam, the write
// plane injects the link faults (drop, partition, slow link) of the fault
// plan the bound world runs under (mpi.World.Faults, attached through
// mpi.RunConfig.Faults); an endpoint has no fault option of its own.
//
// Buffer ownership on the data plane: Post encodes each POST frame once,
// straight into the peer's pending queue, under the queue lock; nothing
// else writes the queue. The peer's flusher owns a second buffer. It swaps
// that buffer in as the queue, writes the old queue outside the lock, and
// keeps the written buffer as its spare for the next swap, so neither
// buffer is reallocated once both have grown. Each peer's read loop reads
// the connection through a buffered reader of its own, so a frame's
// header, its body and the frames queued behind them arrive in one read
// system call, and reads every frame into one body buffer of its own. That
// buffer can be reused because every body decoder copies out what it
// keeps. The buffers outlive the endpoint: Close returns them to a
// process-wide pool once the peer's flusher and read loop have exited, and
// Bind hands them to the next endpoint's peers, so a process that opens
// one world after another writes and reads into the buffers the earlier
// worlds grew. The bootstrap reads (Join's ROSTER, readHello) stay
// unbuffered: the connection passes to the read loop afterwards, and bytes
// a bootstrap reader had buffered past its frame would be lost. A POST decodes into
// the peer's own envelope (peer.post), whose slices and strings are reused
// from frame to frame, and its parts into buffers from the bound world's
// free list (mpi.Payloads). DeliverPost keeps only the parts: the mailbox
// owns each one until its generation retires in this process, then puts
// it back on the free list for a later frame to decode into.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mcmdist/internal/mpi"
	"mcmdist/internal/obs"
	"mcmdist/internal/wire"
)

// Options tunes the backend's timeouts. The zero value selects the defaults.
type Options struct {
	// DialTimeout bounds how long Join (and the mesh dials) retry an
	// unreachable peer before giving up; peers start in any order, so dials
	// retry until the window closes. Default 15s.
	DialTimeout time.Duration
	// WriteTimeout bounds each frame write; a peer that stops draining its
	// socket surfaces as a transport error instead of a silent hang.
	// Default 30s.
	WriteTimeout time.Duration
	// CloseTimeout bounds the graceful BYE drain in Close before the
	// connections are torn down regardless. Default 5s.
	CloseTimeout time.Duration
	// HeartbeatInterval is how often the failure detector pings each peer
	// while the endpoint is bound. Any inbound frame counts as liveness, so
	// pings only flow on otherwise-idle links. Default 500ms; negative
	// disables the detector entirely.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a peer may stay silent — no frames of any
	// kind — before the detector declares it down and aborts the world with
	// a PeerDownError. It must comfortably exceed the longest stretch a
	// healthy peer can go without writing (pings bound that by
	// HeartbeatInterval plus scheduling noise). Default 10s.
	HeartbeatTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 15 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 30 * time.Second
	}
	if o.CloseTimeout <= 0 {
		o.CloseTimeout = 5 * time.Second
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = 500 * time.Millisecond
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 10 * time.Second
	}
	return o
}

// peer is one mesh connection. Writers serialize on wmu and send each
// frame in one gathered write, so frames never interleave; the reader
// goroutine owns the receive side exclusively.
//
// Mailbox POST frames do not write the socket directly: they are encoded
// into a per-peer pending buffer and a flusher goroutine drains it, so
// frames queued while a write is in flight coalesce into one Write — the
// small-message aggregation of the wire layer. Bootstrap, RMA, ABORT and
// BYE frames keep writing directly under wmu. An RMA request may overtake
// a fence POST still in the queue, and that is harmless: RMA calls block
// for their reply, so every pre-fence RMA has completed before the fence is
// posted, and the fence only completes once every peer has posted it, so a
// post-fence RMA reaches a target that is already inside the fence.
type peer struct {
	rank int
	conn net.Conn
	wmu  sync.Mutex
	bye  chan struct{} // closed when the peer's BYE arrives
	byeO sync.Once

	lastRecv atomic.Int64 // UnixNano of the last inbound frame (liveness)
	faultN   atomic.Int64 // outbound data frames on this link (fault triggers)

	// Cristian clock-probe state, fed by the PONG handler: the best (lowest)
	// round-trip seen and the offset estimated from that exchange — peer
	// trace time + clockOff ≈ local trace time. pingN sequences outbound
	// probes for the slow-link injector only; it never feeds faultN, so the
	// deterministic data-frame fault schedule ignores heartbeat traffic.
	minRTT   atomic.Int64
	clockOff atomic.Int64
	hasOff   atomic.Bool
	pingN    atomic.Int64

	out  frameOut      // the direct path's header and gather list, under wmu
	rd   *bufio.Reader // the read loop's buffered view of conn
	in   frameIn       // the read loop's header and reused frame body
	post mpi.PostMsg   // the read loop's envelope, decoded into per POST

	qmu      sync.Mutex
	qcv      *sync.Cond
	qbuf     []byte // framed mailbox bytes awaiting the flusher
	qspare   []byte // the flusher's last written buffer; the queue after its next swap
	qbusy    bool   // a flusher Write is in flight
	qstop    bool   // no further enqueues; flusher exits once drained
	qtimeout bool   // drainWrites gave up waiting; Close is tearing down
	qerr     error  // first write error; poisons subsequent enqueues
}

// Net is one process's TCP endpoint of a world: it hosts exactly one rank
// and holds one connection to every other rank. It implements mpi.Transport.
type Net struct {
	rank int
	size int
	opts Options

	peers []*peer // indexed by world rank; peers[rank] == nil

	world atomic.Pointer[mpi.World]

	callID  atomic.Uint64
	pending sync.Map // callID → rmaCall

	closed   atomic.Bool
	readers  sync.WaitGroup
	flushers sync.WaitGroup

	cutN   atomic.Int64  // outbound cross-cut data frames (partition trigger)
	hbStop chan struct{} // closes to stop the heartbeat monitor
	hb     sync.WaitGroup

	frames atomic.Int64 // frames handed to the write plane
	writes atomic.Int64 // socket Write calls that carried them
	bytes  atomic.Int64 // bytes written

	// The observability shipping plane (wire v4): a worker renders its
	// collector state via obsProvider and ships it to the coordinator once
	// (obsShipped); the coordinator accumulates inbound payloads in obsIn.
	obsProvider atomic.Value // func() []byte
	obsShipped  atomic.Bool
	obsMu       sync.Mutex
	obsIn       map[int][]byte
}

// WireStats counts this endpoint's outbound wire activity. Frames is the
// number of frames sent, Writes the number of socket writes that carried
// them — aggregation shows up as Writes < Frames — and Bytes the total
// bytes written, which with compression on is smaller than the same
// solve writes raw.
type WireStats struct {
	// Frames counts frames handed to the write plane.
	Frames int64
	// Writes counts the socket Write calls that carried them.
	Writes int64
	// Bytes counts bytes written, header included.
	Bytes int64
}

// WireStats returns a snapshot of the endpoint's outbound counters.
func (n *Net) WireStats() WireStats {
	return WireStats{Frames: n.frames.Load(), Writes: n.writes.Load(), Bytes: n.bytes.Load()}
}

type rmaReply struct {
	resp *mpi.RMAResp
	err  error
}

// rmaCall is one in-flight RMA call: the rank whose reply it awaits and
// the channel the reply goes to.
type rmaCall struct {
	rank int
	ch   chan rmaReply
}

// Rendezvous is rank 0's bootstrap listener, split from Coordinate so the
// address (which may have been chosen by the kernel, ":0") is known before
// the peers are told to dial it.
type Rendezvous struct {
	ln   net.Listener
	opts Options
}

// Listen opens rank 0's rendezvous listener on addr ("host:port"; a zero
// port lets the kernel pick).
func Listen(addr string, opts Options) (*Rendezvous, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: rendezvous listen on %q: %w", addr, err)
	}
	return &Rendezvous{ln: ln, opts: opts.withDefaults()}, nil
}

// Addr returns the rendezvous address peers must Join.
func (rv *Rendezvous) Addr() string { return rv.ln.Addr().String() }

// Close abandons the rendezvous without coordinating (Coordinate closes the
// listener itself).
func (rv *Rendezvous) Close() error { return rv.ln.Close() }

// Relisten opens a fresh rendezvous at rv's address with rv's options once
// rv's own listener is closed: how a restarted world rendezvouses again at
// the address its workers already know, even one the kernel chose.
func (rv *Rendezvous) Relisten() (*Rendezvous, error) { return Listen(rv.Addr(), rv.opts) }

// Coordinate completes rank 0's bootstrap of a size-rank world: it accepts
// one dial-in per peer rank, replies to each with the roster (every rank's
// mesh listen address) and the opaque config blob, and keeps the accepted
// connections as its mesh edges. It returns rank 0's transport endpoint.
// config is typically an encoded job spec that tells worker processes what
// to solve; nil is fine.
func (rv *Rendezvous) Coordinate(size int, config []byte) (*Net, error) {
	defer rv.ln.Close()
	if size <= 0 {
		return nil, fmt.Errorf("tcpnet: world size %d must be positive", size)
	}
	n := &Net{rank: 0, size: size, opts: rv.opts, peers: make([]*peer, size)}
	addrs := make([]string, size)
	addrs[0] = rv.Addr()
	deadline := time.Now().Add(rv.opts.DialTimeout)
	for accepted := 0; accepted < size-1; accepted++ {
		rv.ln.(*net.TCPListener).SetDeadline(deadline)
		conn, err := rv.ln.Accept()
		if err != nil {
			n.teardown()
			return nil, fmt.Errorf("tcpnet: rendezvous accept (%d/%d peers in): %w", accepted, size-1, err)
		}
		rank, listenAddr, err := readHello(conn, rv.opts)
		if err != nil {
			conn.Close()
			n.teardown()
			return nil, err
		}
		if rank <= 0 || rank >= size {
			conn.Close()
			n.teardown()
			return nil, fmt.Errorf("tcpnet: peer announced rank %d outside world of size %d", rank, size)
		}
		if n.peers[rank] != nil {
			conn.Close()
			n.teardown()
			return nil, fmt.Errorf("tcpnet: rank %d joined twice", rank)
		}
		n.peers[rank] = newPeer(rank, conn)
		addrs[rank] = listenAddr
	}
	var body wire.Writer
	body.U32(uint32(size))
	for _, a := range addrs {
		body.Str(a)
	}
	body.Bytes(config)
	for r := 1; r < size; r++ {
		p := n.peers[r]
		if err := n.send(p, frameRoster, body.Buf); err != nil {
			n.teardown()
			return nil, fmt.Errorf("tcpnet: sending roster to rank %d: %w", r, err)
		}
	}
	return n, nil
}

// Join is a worker rank's bootstrap: open a mesh listener, dial the
// coordinator (retrying while it comes up), announce the rank, receive the
// roster and config blob, then complete the mesh — dialing every lower
// nonzero rank and accepting every higher one. It returns this rank's
// transport endpoint and the coordinator's config blob.
func Join(addr string, rank int, opts Options) (*Net, []byte, error) {
	opts = opts.withDefaults()
	if rank <= 0 {
		return nil, nil, fmt.Errorf("tcpnet: Join with rank %d (rank 0 coordinates via Listen/Coordinate)", rank)
	}
	ln, err := net.Listen("tcp", meshListenAddr(addr))
	if err != nil {
		return nil, nil, fmt.Errorf("tcpnet: mesh listen: %w", err)
	}
	defer ln.Close()

	conn, err := dialRetry(addr, opts.DialTimeout)
	if err != nil {
		return nil, nil, fmt.Errorf("tcpnet: dialing coordinator %q: %w", addr, err)
	}
	if err := writeHello(conn, rank, ln.Addr().String(), opts); err != nil {
		conn.Close()
		return nil, nil, err
	}
	typ, body, err := readFrame(conn, new(frameIn))
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("tcpnet: awaiting roster: %w", err)
	}
	if typ != frameRoster {
		conn.Close()
		return nil, nil, fmt.Errorf("tcpnet: expected ROSTER, got %s", frameName(typ))
	}
	addrs, config, err := parseRoster(body)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	size := len(addrs)
	if rank >= size {
		conn.Close()
		return nil, nil, fmt.Errorf("tcpnet: rank %d outside world of size %d", rank, size)
	}

	n := &Net{rank: rank, size: size, opts: opts, peers: make([]*peer, size)}
	n.peers[0] = newPeer(0, conn)
	// Mesh edge (i, j), i > j ≥ 1, is dialed by i and accepted by j; the
	// bootstrap connection already covers every (r, 0) edge.
	for j := 1; j < rank; j++ {
		c, err := dialRetry(addrs[j], opts.DialTimeout)
		if err != nil {
			n.teardown()
			return nil, nil, fmt.Errorf("tcpnet: dialing rank %d at %q: %w", j, addrs[j], err)
		}
		if err := writeHello(c, rank, "", opts); err != nil {
			c.Close()
			n.teardown()
			return nil, nil, err
		}
		n.peers[j] = newPeer(j, c)
	}
	deadline := time.Now().Add(opts.DialTimeout)
	for need := size - rank - 1; need > 0; need-- {
		ln.(*net.TCPListener).SetDeadline(deadline)
		c, err := ln.Accept()
		if err != nil {
			n.teardown()
			return nil, nil, fmt.Errorf("tcpnet: mesh accept (awaiting %d higher ranks): %w", need, err)
		}
		r, _, err := readHello(c, opts)
		if err != nil {
			c.Close()
			n.teardown()
			return nil, nil, err
		}
		if r <= rank || r >= size || n.peers[r] != nil {
			c.Close()
			n.teardown()
			return nil, nil, fmt.Errorf("tcpnet: unexpected mesh hello from rank %d at rank %d", r, rank)
		}
		n.peers[r] = newPeer(r, c)
	}
	return n, config, nil
}

// meshListenAddr picks the worker's mesh listen address: the coordinator
// host's wildcard port when the host is explicit, plain ":0" otherwise.
// Loopback coordinators get loopback mesh listeners, which keeps multi-rank
// tests and the smoke script off external interfaces.
func meshListenAddr(coord string) string {
	host, _, err := net.SplitHostPort(coord)
	if err != nil || host == "" {
		return ":0"
	}
	if ip := net.ParseIP(host); ip != nil && ip.IsLoopback() {
		return net.JoinHostPort(host, "0")
	}
	return ":0"
}

// dialRetry dials addr until it answers or the window closes; peers start in
// any order, so connection-refused is an expected transient. Each attempt
// gets a capped per-attempt timeout (not the whole window, which would let a
// single black-holed SYN eat every retry), and attempts are spaced by
// jittered exponential backoff so a herd of restarting workers does not
// hammer the coordinator in lockstep.
func dialRetry(addr string, window time.Duration) (net.Conn, error) {
	const (
		attemptCap = 2 * time.Second
		backoff0   = 10 * time.Millisecond
		backoffCap = 500 * time.Millisecond
	)
	deadline := time.Now().Add(window)
	backoff := backoff0
	for attempt := uint64(0); ; attempt++ {
		per := attemptCap
		if remain := time.Until(deadline); remain < per {
			per = remain
		}
		if per <= 0 {
			per = time.Millisecond
		}
		conn, err := net.DialTimeout("tcp", addr, per)
		if err == nil {
			return conn, nil
		}
		// Jitter is deterministic per (address, attempt) but differs across
		// dialers of distinct addresses; half fixed, half mixed keeps the
		// average pause at backoff while decorrelating the herd.
		pause := backoff/2 + time.Duration(splitmixDial(uint64(len(addr))<<32^attempt)%uint64(backoff/2+1))
		if time.Now().Add(pause).After(deadline) {
			return nil, err
		}
		time.Sleep(pause)
		if backoff *= 2; backoff > backoffCap {
			backoff = backoffCap
		}
	}
}

// splitmixDial is the SplitMix64 mixer, deriving the dial backoff jitter.
func splitmixDial(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newPeer(rank int, conn net.Conn) *peer {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	p := &peer{rank: rank, conn: conn, bye: make(chan struct{})}
	p.lastRecv.Store(time.Now().UnixNano()) // the connection just opened; clearly alive
	p.qcv = sync.NewCond(&p.qmu)
	return p
}

func writeHello(conn net.Conn, rank int, listenAddr string, opts Options) error {
	b := wire.Writer{Buf: []byte(wireMagic)}
	b.U8(wireVersion)
	b.U32(uint32(rank))
	b.Str(listenAddr)
	conn.SetWriteDeadline(time.Now().Add(opts.WriteTimeout))
	err := writeFrame(conn, new(frameOut), frameHello, b.Buf)
	conn.SetWriteDeadline(time.Time{})
	if err != nil {
		return fmt.Errorf("tcpnet: sending hello: %w", err)
	}
	return nil
}

func readHello(conn net.Conn, opts Options) (rank int, listenAddr string, err error) {
	conn.SetReadDeadline(time.Now().Add(opts.DialTimeout))
	typ, body, err := readFrame(conn, new(frameIn))
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		return 0, "", fmt.Errorf("tcpnet: awaiting hello: %w", err)
	}
	if typ != frameHello {
		return 0, "", fmt.Errorf("tcpnet: expected HELLO, got %s", frameName(typ))
	}
	return parseHello(body)
}

// teardown closes every connection established so far (bootstrap failure
// path only; the graceful path is Close).
func (n *Net) teardown() {
	for _, p := range n.peers {
		if p != nil {
			p.conn.Close()
		}
	}
}

// Name returns "tcp".
func (n *Net) Name() string { return "tcp" }

// WorldSize returns the rank count of the world.
func (n *Net) WorldSize() int { return n.size }

// LocalRanks returns the single rank this process hosts.
func (n *Net) LocalRanks() []int { return []int{n.rank} }

// Bind attaches the world and starts one reader goroutine per peer
// connection; from here on inbound frames flow into the mailbox.
func (n *Net) Bind(w *mpi.World) error {
	if !n.world.CompareAndSwap(nil, w) {
		return fmt.Errorf("tcpnet: endpoint bound twice")
	}
	for _, p := range n.peers {
		if p == nil {
			continue
		}
		b := wirePool.Get().(*wireBufs)
		p.qmu.Lock()
		p.qbuf, p.qspare = b.queue, b.spare
		p.qmu.Unlock()
		p.in.body = b.body
		p.rd = b.rd
		p.rd.Reset(p.conn)
		n.readers.Add(1)
		go n.readLoop(p)
		n.flushers.Add(1)
		go n.flushLoop(p)
	}
	if n.opts.HeartbeatInterval > 0 {
		n.hbStop = make(chan struct{})
		n.hb.Add(1)
		go n.heartbeats()
	}
	return nil
}

// heartbeats is the failure detector: every HeartbeatInterval it pings each
// live peer (so an idle but healthy link keeps refreshing liveness on the
// other side) and checks how long each peer has stayed silent; one quiet past
// HeartbeatTimeout is declared down and the world aborts with a
// PeerDownError, waking every mailbox waiter instead of stalling into the
// watchdog.
func (n *Net) heartbeats() {
	defer n.hb.Done()
	// Probe every peer immediately: a solve shorter than one interval still
	// deserves a clock-offset sample for its trace merge.
	for _, p := range n.peers {
		if p != nil {
			n.sendPing(p)
		}
	}
	tick := time.NewTicker(n.opts.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-n.hbStop:
			return
		case <-tick.C:
		}
		now := time.Now()
		for _, p := range n.peers {
			if p == nil {
				continue
			}
			select {
			case <-p.bye:
				continue // the peer drained politely; its silence is expected
			default:
			}
			quiet := now.Sub(time.Unix(0, p.lastRecv.Load()))
			if quiet > n.opts.HeartbeatTimeout {
				cause := &mpi.PeerDownError{Rank: p.rank, Op: "heartbeat",
					Err: fmt.Errorf("silent for %v (timeout %v)", quiet.Round(time.Millisecond), n.opts.HeartbeatTimeout)}
				n.failPending(cause)
				if w := n.world.Load(); w != nil {
					w.Abort(cause)
				}
				return
			}
			n.sendPing(p)
		}
	}
}

// sendPing writes one PING directly, bypassing both the write queue and the
// wire counters: pings are timer-driven, so counting them would make
// WireStats — pinned bit-identical by the conformance suite — depend on
// wall-clock timing. The deadline is the ping interval: a write that cannot
// complete by the next tick is pointless, and a stuck peer must not pin the
// detector for the full WriteTimeout. Failures are ignored; a genuinely dead
// peer surfaces through its own silence or the read plane.
//
// The PING doubles as the Cristian clock probe: it carries the sender's
// trace clock, captured before any injected slow-link delay — the delay
// models network latency, so it must land inside the measured round trip
// (that is what makes slow-link injection visible in the RTT estimates).
// The probe sequence is its own counter: heartbeat traffic never advances
// the data-frame fault triggers.
func (n *Net) sendPing(p *peer) {
	t0 := obs.Now()
	if f := n.faults(); f != nil {
		if d := f.Delay(n.rank, p.rank, p.pingN.Add(1)); d > 0 {
			time.Sleep(d)
		}
	}
	n.sendQuiet(p, framePing, encodePing(t0), time.Now().Add(n.opts.HeartbeatInterval))
}

// sendPong answers one clock probe, echoing t0 next to this side's own
// trace clock. Like PING it is quiet traffic — uncounted, best-effort, and
// bounded by the ping interval so a stuck peer cannot pin the read loop.
func (n *Net) sendPong(p *peer, t0 int64) {
	n.sendQuiet(p, framePong, encodePong(t0, obs.Now()), time.Now().Add(n.opts.HeartbeatInterval))
}

// observePong folds one completed probe into the peer's clock state: if the
// exchange was the fastest seen, its midpoint estimate wins (Cristian's
// algorithm with minimum-RTT filtering — the tightest round trip bounds the
// true offset best). The RTT also enters the world's event list as an
// hb.rtt instant, so injected slow links show up in traces.
func (n *Net) observePong(p *peer, t0, tPeer int64) {
	rtt := obs.Now() - t0
	if rtt < 0 {
		return
	}
	if cur := p.minRTT.Load(); cur == 0 || rtt < cur {
		p.minRTT.Store(rtt)
		p.clockOff.Store(t0 + rtt/2 - tPeer)
		p.hasOff.Store(true)
	}
	if w := n.world.Load(); w != nil {
		w.RecordObsEvent(fmt.Sprintf("hb.rtt to %d", p.rank), n.rank, rtt)
	}
}

// sendQuiet writes one frame directly under the peer's write lock without
// touching the wire counters: runtime plumbing (PING, PONG, OBS) must not
// perturb the conformance-pinned WireStats. Failures are the caller's to
// interpret; the heartbeat paths ignore them.
func (n *Net) sendQuiet(p *peer, typ byte, body []byte, deadline time.Time) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.conn.SetWriteDeadline(deadline)
	err := writeFrame(p.conn, &p.out, typ, body)
	p.conn.SetWriteDeadline(time.Time{})
	return err
}

// send writes one frame to a peer under its write lock and deadline —
// the direct path for bootstrap, RMA, ABORT and BYE traffic.
func (n *Net) send(p *peer, typ byte, body []byte) error {
	return n.sendTimed(p, typ, body, time.Now().Add(n.opts.WriteTimeout))
}

// sendTimed is send with an explicit write deadline; Close uses it for BYE,
// where the graceful window (CloseTimeout) is tighter than WriteTimeout.
func (n *Net) sendTimed(p *peer, typ byte, body []byte, deadline time.Time) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.conn.SetWriteDeadline(deadline)
	err := writeFrame(p.conn, &p.out, typ, body)
	p.conn.SetWriteDeadline(time.Time{})
	if err == nil {
		n.frames.Add(1)
		n.writes.Add(1)
		n.bytes.Add(int64(5 + len(body)))
	}
	return err
}

// faults returns the fault plan of the bound world (nil when there is none
// or no world is bound): RunConfig.Faults is the one place a plan attaches.
func (n *Net) faults() *mpi.FaultPlan {
	if w := n.world.Load(); w != nil {
		return w.Faults()
	}
	return nil
}

// faultData applies the bound world's fault plan (if any) to the next
// outbound data frame on the link n.rank→p.rank: it sleeps first when the
// link is slow, and returns a non-nil error when the frame must not be sent
// because the link was dropped or the partition cut fired. Terminal faults
// sever the affected connections — so the far side observes real peer
// death — and abort the local world with ErrInjectedNetFault naming the
// exact trigger point, which is what makes the same plan reproduce the same
// failure on every run.
func (n *Net) faultData(p *peer) error {
	f := n.faults()
	if f == nil {
		return nil
	}
	w := n.world.Load() // bound: the plan came from it
	seq := p.faultN.Add(1)
	if d := f.Delay(n.rank, p.rank, seq); d > 0 {
		time.Sleep(d)
	}
	if f.DropsLink(n.rank, p.rank, seq) {
		err := fmt.Errorf("%w: link %d->%d dropped at data frame %d", mpi.ErrInjectedNetFault, n.rank, p.rank, seq)
		// Abort before severing: closing the connection wakes this endpoint's
		// own read loop with a PeerDownError, and the abort cause must already
		// be the injected error when it does — first cause wins, and the
		// injected one is the deterministic one.
		w.Abort(err)
		n.sever(p, err)
		return err
	}
	if n.rank == f.PartitionSender() && f.CrossesCut(n.rank, p.rank) {
		cut := n.cutN.Add(1)
		if f.DropsCut(cut) {
			err := fmt.Errorf("%w: partition %v cut at cross frame %d", mpi.ErrInjectedNetFault, f.Partition, cut)
			w.Abort(err)
			for _, q := range n.peers {
				if q != nil && f.CrossesCut(n.rank, q.rank) {
					n.sever(q, err)
				}
			}
			return err
		}
	}
	return nil
}

// sever kills the link to p as an injected fault would: the queue is
// poisoned so writers fail fast, and the connection is closed so the far
// side observes EOF — genuine peer death, as far as it can tell.
func (n *Net) sever(p *peer, cause error) {
	p.qmu.Lock()
	if p.qerr == nil {
		p.qerr = cause
	}
	p.qcv.Broadcast()
	p.qmu.Unlock()
	p.conn.Close()
}

// enqueuePost frames the POST carrying member i's part straight into the
// peer's pending queue and wakes the flusher: the header goes in first, the
// body is encoded behind it, and the length is backpatched. An oversize
// frame rolls the queue back to where it started. It fails fast once the
// peer's write plane has errored or stopped.
func (n *Net) enqueuePost(p *peer, msg *mpi.PostMsg, i int, compress bool) error {
	p.qmu.Lock()
	defer p.qmu.Unlock()
	if p.qerr != nil {
		return p.qerr
	}
	if p.qstop {
		return fmt.Errorf("tcpnet: writer to rank %d stopped", p.rank)
	}
	start := len(p.qbuf)
	q := wire.Writer{Buf: append(p.qbuf, 0, 0, 0, 0, framePost)}
	writePost(&q, msg, i, compress)
	body := len(q.Buf) - start - 5
	if body > maxFrame {
		p.qbuf = q.Buf[:start]
		return fmt.Errorf("tcpnet: %s frame body %d bytes exceeds cap %d", frameName(framePost), body, maxFrame)
	}
	binary.LittleEndian.PutUint32(q.Buf[start:], uint32(body))
	p.qbuf = q.Buf
	n.frames.Add(1)
	p.qcv.Signal()
	return nil
}

// flushLoop drains a peer's pending buffer: everything queued since the
// last Write goes out as one Write. It keeps two buffers: while one is being
// written the other is the queue, and the written one comes back as the
// next queue, so neither is reallocated once both have grown. A write error
// poisons the queue and aborts the world (unless the endpoint is already
// closing).
func (n *Net) flushLoop(p *peer) {
	defer n.flushers.Done()
	p.qmu.Lock()
	for {
		for len(p.qbuf) == 0 && !p.qstop {
			p.qcv.Wait()
		}
		if len(p.qbuf) == 0 {
			p.qmu.Unlock()
			return
		}
		buf := p.qbuf
		p.qbuf = p.qspare[:0]
		p.qbusy = true
		p.qmu.Unlock()

		p.wmu.Lock()
		p.conn.SetWriteDeadline(time.Now().Add(n.opts.WriteTimeout))
		_, err := p.conn.Write(buf)
		p.conn.SetWriteDeadline(time.Time{})
		p.wmu.Unlock()
		if err == nil {
			n.writes.Add(1)
			n.bytes.Add(int64(len(buf)))
		}

		p.qmu.Lock()
		p.qspare = buf
		p.qbusy = false
		if err != nil {
			injected := p.qerr != nil // sever poisoned the queue first
			if p.qerr == nil {
				p.qerr = err
			}
			p.qcv.Broadcast()
			p.qmu.Unlock()
			// An injected sever already aborted the world with its own cause;
			// a genuine write failure means the peer's process is gone.
			if !n.closed.Load() && !injected {
				cause := &mpi.PeerDownError{Rank: p.rank, Op: "write", Err: err}
				n.failPending(cause)
				if w := n.world.Load(); w != nil {
					w.Abort(cause)
				}
			}
			return
		}
		p.qcv.Broadcast()
	}
}

// drainWrites blocks until the peer's pending buffer is flushed (or its
// write plane has errored), then stops the flusher. Close uses it so BYE —
// a direct send — cannot overtake queued mailbox frames. The wait is bounded
// by deadline: a peer that stopped draining its socket must not hold Close
// hostage for the full WriteTimeout, so past the deadline the queue is
// marked timed out and the in-flight Write is abandoned to the connection
// teardown (conn.Close kicks it loose).
func (p *peer) drainWrites(deadline time.Time) {
	var expired atomic.Bool
	timer := time.AfterFunc(time.Until(deadline), func() {
		p.qmu.Lock()
		expired.Store(true)
		p.qcv.Broadcast()
		p.qmu.Unlock()
	})
	defer timer.Stop()
	p.qmu.Lock()
	for (len(p.qbuf) > 0 || p.qbusy) && p.qerr == nil && !expired.Load() {
		p.qcv.Wait()
	}
	if expired.Load() && p.qerr == nil && (len(p.qbuf) > 0 || p.qbusy) {
		p.qtimeout = true
	}
	p.qstop = true
	p.qcv.Broadcast()
	p.qmu.Unlock()
}

// Post ships msg's parts to each remote member's process. Every remote
// member gets exactly one POST frame carrying only its own part (plus the
// envelope), so the receiving mailbox counts exactly one arrival per
// (source, generation) and wire volume matches the addressed payloads.
// Frames ride the per-peer write queue; when the bound world runs with
// compression the part payload travels delta-varint encoded.
func (n *Net) Post(msg *mpi.PostMsg) error {
	compress := false
	if w := n.world.Load(); w != nil {
		compress = w.Compress()
	}
	for i, dst := range msg.Ranks {
		if dst == n.rank {
			continue
		}
		p := n.peers[dst]
		if p == nil {
			return fmt.Errorf("tcpnet: no connection to rank %d", dst)
		}
		if err := n.faultData(p); err != nil {
			return fmt.Errorf("tcpnet: posting %s gen %d to rank %d: %w", msg.Op, msg.Gen, dst, err)
		}
		if err := n.enqueuePost(p, msg, i, compress); err != nil {
			return fmt.Errorf("tcpnet: posting %s gen %d to rank %d: %w", msg.Op, msg.Gen, dst, err)
		}
	}
	return nil
}

// RMA sends one one-sided operation to the process hosting rank and blocks
// for its reply.
func (n *Net) RMA(rank int, req *mpi.RMAReq) (*mpi.RMAResp, error) {
	p := n.peers[rank]
	if p == nil {
		return nil, fmt.Errorf("tcpnet: no connection to rank %d", rank)
	}
	if err := n.faultData(p); err != nil {
		return nil, fmt.Errorf("tcpnet: rma to rank %d: %w", rank, err)
	}
	id := n.callID.Add(1)
	ch := make(chan rmaReply, 1)
	n.pending.Store(id, rmaCall{rank: rank, ch: ch})
	defer n.pending.Delete(id)
	// Whatever dooms the reply — a world abort, Close, the end of p's read
	// loop — fails the calls registered when it happens, so a call
	// registered after it must fail here instead of waiting forever.
	select {
	case <-p.bye:
		return nil, fmt.Errorf("tcpnet: rma to rank %d: its connection has drained", rank)
	default:
	}
	if w := n.world.Load(); n.closed.Load() || w != nil && w.Aborted() {
		return nil, fmt.Errorf("tcpnet: rma to rank %d: world aborted or endpoint closed", rank)
	}

	var b wire.Writer
	b.U64(id)
	b.Str(req.Win)
	b.U32(uint32(req.Member))
	b.U8(byte(req.Op))
	b.I64(int64(req.Off))
	b.I64(int64(req.N))
	writeInts(&b, req.Data)
	b.U8(byte(req.Code))
	b.I64(req.Operand)
	if err := n.send(p, frameRMAReq, b.Buf); err != nil {
		return nil, fmt.Errorf("tcpnet: rma call %d to rank %d: %w", id, rank, err)
	}
	reply := <-ch
	return reply.resp, reply.err
}

// Abort best-effort broadcasts the world abort to every peer; dead
// connections are skipped (the local abort must never block on them).
// The broadcast is bounded by CloseTimeout, not WriteTimeout: the world is
// dying, so a peer that cannot take the frame promptly gets torn down
// instead of pinning the write lock — and with it BYE and Close — for the
// full write window. In-flight RMA calls are failed too; their replies may
// never come from a world that is dying, and the callers must unwind
// through the abort plane.
func (n *Net) Abort(msg string) {
	var b wire.Writer
	b.U32(uint32(n.rank))
	b.Str(msg)
	deadline := time.Now().Add(n.opts.CloseTimeout)
	for _, p := range n.peers {
		if p != nil {
			n.sendTimed(p, frameAbort, b.Buf, deadline)
		}
	}
	n.failPending(fmt.Errorf("tcpnet: world aborted: %s", msg))
}

// Net implements the optional observability capability of the seam.
var _ mpi.ObsShipper = (*Net)(nil)

// SetObsProvider registers the callback that renders this process's
// observability payload (mpi.ObsShipper).
func (n *Net) SetObsProvider(render func() []byte) {
	if render != nil {
		n.obsProvider.Store(render)
	}
}

// ShipObs renders this process's observability payload and sends it to the
// coordinator as one OBS frame (mpi.ObsShipper). Only the first call
// transmits; the coordinator itself never ships. Like the heartbeat, the
// frame is quiet traffic — invisible to WireStats and the fault triggers.
func (n *Net) ShipObs() error {
	if n.rank == 0 {
		return nil
	}
	render, _ := n.obsProvider.Load().(func() []byte)
	if render == nil {
		return nil
	}
	if !n.obsShipped.CompareAndSwap(false, true) {
		return nil
	}
	payload := render()
	if len(payload) == 0 {
		return nil
	}
	p := n.peers[0]
	if p == nil {
		return nil
	}
	return n.sendQuiet(p, frameObs, encodeObs(n.rank, payload), time.Now().Add(n.opts.WriteTimeout))
}

// CollectObs returns the payloads the peers shipped, waiting — bounded by
// timeout — until every peer has either delivered one or clearly never will
// (its BYE arrived, so nothing more is in flight on the ordered connection;
// or the world aborted). mpi.ObsShipper.
func (n *Net) CollectObs(timeout time.Duration) map[int][]byte {
	deadline := time.Now().Add(timeout)
	for {
		pending := 0
		n.obsMu.Lock()
		for _, p := range n.peers {
			if p == nil {
				continue
			}
			if _, ok := n.obsIn[p.rank]; ok {
				continue
			}
			select {
			case <-p.bye:
			default:
				pending++
			}
		}
		n.obsMu.Unlock()
		aborted := false
		if w := n.world.Load(); w != nil {
			aborted = w.Aborted()
		}
		if pending == 0 || aborted || n.closed.Load() || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	n.obsMu.Lock()
	defer n.obsMu.Unlock()
	out := make(map[int][]byte, len(n.obsIn))
	for r, b := range n.obsIn {
		out[r] = b
	}
	return out
}

// ClockOffsets returns the per-peer Cristian offset estimates gathered by
// the heartbeat probes (mpi.ObsShipper). Adding a peer's offset to its
// trace timestamps maps them into this process's timebase.
func (n *Net) ClockOffsets() map[int]int64 {
	out := make(map[int]int64)
	for _, p := range n.peers {
		if p != nil && p.hasOff.Load() {
			out[p.rank] = p.clockOff.Load()
		}
	}
	return out
}

// Close drains the mesh gracefully: send BYE to every peer, wait (bounded by
// CloseTimeout) until each peer's BYE arrives — a peer only says BYE once
// its world has joined, so our window service is no longer needed — then
// tear the connections down and join the readers. Every step is bounded by
// CloseTimeout end to end: a peer that went silent without BYE cannot stall
// the drain past the deadline or leak this endpoint's goroutines, and after
// a world abort the BYE wait is skipped outright — dead peers will never say
// goodbye.
func (n *Net) Close() error {
	if !n.closed.CompareAndSwap(false, true) {
		return nil
	}
	if n.hbStop != nil {
		close(n.hbStop)
		n.hb.Wait()
	}
	deadline := time.Now().Add(n.opts.CloseTimeout)
	aborted := false
	if w := n.world.Load(); w != nil {
		aborted = w.Aborted()
	}
	// Last-act shipping: a worker whose caller never shipped explicitly
	// sends its observability payload now, before any BYE goes out, so the
	// coordinator knows a drained peer has nothing more in flight.
	if !aborted {
		n.ShipObs()
	}
	for _, p := range n.peers {
		if p == nil {
			continue
		}
		p.drainWrites(deadline)
		p.qmu.Lock()
		// A stuck or errored write plane means the flusher may still hold the
		// write lock; skip BYE rather than queue behind it — the peer is not
		// listening anyway.
		stuck := p.qtimeout || p.qerr != nil
		p.qmu.Unlock()
		if !stuck {
			n.sendTimed(p, frameBye, nil, deadline)
		}
	}
	// Wait for the peers' BYEs only on a bound, healthy endpoint: without
	// readers no BYE can be observed, an unbound world never owed its peers
	// any service, and an aborted world's peers may already be gone.
	if n.world.Load() != nil && !aborted {
		timer := time.NewTimer(time.Until(deadline))
	drain:
		for _, p := range n.peers {
			if p == nil {
				continue
			}
			select {
			case <-p.bye:
			case <-timer.C:
				break drain
			}
		}
		timer.Stop()
	}
	for _, p := range n.peers {
		if p != nil {
			p.conn.Close()
		}
	}
	n.failPending(fmt.Errorf("tcpnet: endpoint closed"))
	n.readers.Wait()
	n.flushers.Wait()
	if n.world.Load() != nil {
		for _, p := range n.peers {
			if p != nil {
				p.releaseBufs()
			}
		}
	}
	return nil
}

// wireBufs is one peer's buffers between endpoints: the write queue pair,
// the read body and the buffered reader.
type wireBufs struct {
	queue, spare, body []byte
	rd                 *bufio.Reader
}

// readBufSize is the read loop's buffer: room for a level's worth of small
// POST frames (the scalar reductions, the short frontiers) per read, while
// a frame larger than it is read mostly straight into the body buffer.
const readBufSize = 16 << 10

// wirePool lends a bound endpoint's peers their buffers; the GC bounds what
// it keeps.
var wirePool = sync.Pool{New: func() any { return &wireBufs{rd: bufio.NewReaderSize(nil, readBufSize)} }}

// releaseBufs returns the peer's buffers to wirePool. Close calls it once
// the peer's flusher and read loop have exited; the queue was stopped by
// drainWrites, so no Post can append to it again.
func (p *peer) releaseBufs() {
	p.qmu.Lock()
	b := &wireBufs{queue: p.qbuf[:0], spare: p.qspare[:0], body: p.in.body[:0], rd: p.rd}
	p.qbuf, p.qspare, p.in.body, p.rd = nil, nil, nil, nil
	p.qmu.Unlock()
	b.rd.Reset(nil) // drop the closed connection
	wirePool.Put(b)
}

// failPending resolves every in-flight RMA call with err.
func (n *Net) failPending(err error) { n.failCalls(-1, err) }

// failCalls resolves the in-flight RMA calls awaiting rank's reply (every
// call when rank is -1) with err.
func (n *Net) failCalls(rank int, err error) {
	n.pending.Range(func(key, value any) bool {
		if c := value.(rmaCall); rank < 0 || c.rank == rank {
			select {
			case c.ch <- rmaReply{err: err}:
			default:
			}
		}
		return true
	})
}

// readLoop owns a peer connection's receive side: it decodes frames and
// feeds them to the bound world until BYE, EOF, or a transport fault. A
// fault with the world still live aborts it with a PeerDownError — EOF or a
// reset here is how a silently killed peer process announces itself — so
// every mailbox waiter wakes immediately; after BYE or Close the loop just
// winds down.
func (n *Net) readLoop(p *peer) {
	defer n.readers.Done()
	// However the loop ends — BYE, EOF, fault — the peer needs nothing more
	// from us; marking it drained lets Close stop waiting for it. No reply
	// from it can arrive any more either, so the calls awaiting one fail
	// (after the mark, which RMA checks once its call is registered).
	defer func() {
		p.byeO.Do(func() { close(p.bye) })
		n.failCalls(p.rank, fmt.Errorf("tcpnet: connection to rank %d drained", p.rank))
	}()
	for {
		typ, body, err := readFrame(p.rd, &p.in)
		if err != nil {
			if n.closed.Load() {
				return
			}
			select {
			case <-p.bye:
				// The peer drained politely and closed; nothing is lost.
				return
			default:
			}
			cause := &mpi.PeerDownError{Rank: p.rank, Op: "read", Err: err}
			n.failPending(cause)
			if w := n.world.Load(); w != nil {
				w.Abort(cause)
			}
			return
		}
		p.lastRecv.Store(time.Now().UnixNano())
		if err := n.handle(p, typ, body); err != nil {
			if w := n.world.Load(); w != nil {
				w.Abort(&mpi.TransportError{Backend: "tcp", Op: "decode", Err: err})
			}
			return
		}
		if typ == frameBye {
			return
		}
	}
}

// handle dispatches one inbound frame through the shared body decoders (the
// same pure functions the fuzz targets exercise).
func (n *Net) handle(p *peer, typ byte, body []byte) error {
	w := n.world.Load()
	switch typ {
	case framePost:
		if err := decodePost(body, &p.post, w.Payloads().Take); err != nil {
			return fmt.Errorf("%w (from rank %d)", err, p.rank)
		}
		w.DeliverPost(&p.post)
	case frameRMAReq:
		id, req, err := decodeRMAReq(body)
		if err != nil {
			return fmt.Errorf("%w (from rank %d)", err, p.rank)
		}
		resp, rmaErr := w.ExecRMA(req)
		var b wire.Writer
		b.U64(id)
		if rmaErr != nil {
			b.U8(0)
			b.Str(rmaErr.Error())
		} else {
			b.U8(1)
			writeInts(&b, resp.Data)
			b.I64(resp.Old)
		}
		if err := n.send(p, frameRMAResp, b.Buf); err != nil {
			return fmt.Errorf("tcpnet: rma reply %d to rank %d: %w", id, p.rank, err)
		}
	case frameRMAResp:
		id, resp, remoteErr, ok, err := decodeRMAResp(body)
		if err != nil {
			return fmt.Errorf("%w (from rank %d)", err, p.rank)
		}
		var reply rmaReply
		if ok {
			reply.resp = resp
		} else {
			reply.err = fmt.Errorf("tcpnet: remote rma failed on rank %d: %s", p.rank, remoteErr)
		}
		if c, found := n.pending.Load(id); found {
			select {
			case c.(rmaCall).ch <- reply:
			default:
			}
		}
	case frameAbort:
		from, msg, err := decodeAbort(body)
		if err != nil {
			return fmt.Errorf("%w (from rank %d)", err, p.rank)
		}
		w.DeliverAbort(from, msg)
		n.failPending(fmt.Errorf("tcpnet: world aborted by rank %d: %s", from, msg))
	case framePing:
		// readLoop already refreshed liveness; answer the clock probe.
		t0, err := decodePing(body)
		if err != nil {
			return fmt.Errorf("%w (from rank %d)", err, p.rank)
		}
		n.sendPong(p, t0)
	case framePong:
		t0, tPeer, err := decodePong(body)
		if err != nil {
			return fmt.Errorf("%w (from rank %d)", err, p.rank)
		}
		n.observePong(p, t0, tPeer)
	case frameObs:
		from, payload, err := decodeObs(body)
		if err != nil {
			return fmt.Errorf("%w (from rank %d)", err, p.rank)
		}
		n.obsMu.Lock()
		if n.obsIn == nil {
			n.obsIn = make(map[int][]byte)
		}
		n.obsIn[from] = payload
		n.obsMu.Unlock()
	case frameBye:
		p.byeO.Do(func() { close(p.bye) })
	default:
		return fmt.Errorf("tcpnet: unexpected %s frame from rank %d", frameName(typ), p.rank)
	}
	return nil
}

// Loopback builds every endpoint of a size-rank world over 127.0.0.1, for
// tests and the conformance suite. Endpoint i hosts rank i.
func Loopback(size int) ([]mpi.Transport, error) {
	return LoopbackOpts(size, nil, Options{})
}

// LoopbackOpts is Loopback with a coordinator config blob (each Join-side
// endpoint receives it in the roster) and explicit Options applied to
// every endpoint; the failure-detector tests use it for tight heartbeat
// windows. Faults are not an endpoint option: each endpoint reads them from
// the world it is bound to (mpi.RunConfig.Faults).
func LoopbackOpts(size int, config []byte, opts Options) ([]mpi.Transport, error) {
	if size <= 0 {
		return nil, fmt.Errorf("tcpnet: world size %d must be positive", size)
	}
	rv, err := Listen("127.0.0.1:0", opts)
	if err != nil {
		return nil, err
	}
	eps := make([]mpi.Transport, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	wg.Add(size)
	go func() {
		defer wg.Done()
		n, err := rv.Coordinate(size, config)
		if err == nil {
			eps[0] = n
		}
		errs[0] = err
	}()
	for r := 1; r < size; r++ {
		go func(r int) {
			defer wg.Done()
			n, _, err := Join(rv.Addr(), r, opts)
			if err == nil {
				eps[r] = n
			}
			errs[r] = err
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, ep := range eps {
				if ep != nil {
					ep.(*Net).teardown()
				}
			}
			return nil, err
		}
	}
	return eps, nil
}
