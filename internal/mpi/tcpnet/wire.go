package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"mcmdist/internal/mpi"
	"mcmdist/internal/wire"
)

// Wire format (version 6, magic "MCMNET1"):
//
//	frame   := u32 bodyLen | u8 type | body
//	u32/u64 := little-endian; int64 values travel as their two's-complement u64
//	str     := u32 len | bytes (UTF-8, no terminator)
//	ints    := u32 count | count × u64
//	part    := u8 enc | enc 0: ints
//	                  | enc 1: u32 count | u32 nbytes | delta-varint bytes
//
// Frame bodies:
//
//	HELLO    := magic "MCMNET1" | u8 version | u32 rank | str listenAddr
//	ROSTER   := u32 size | size × str addr | str config
//	POST     := str comm | u32 n | n × u32 rank | u32 src | u64 gen |
//	            str op | u32 n | n × (u8 present | part)
//	RMA_REQ  := u64 callID | str win | u32 member | u8 op | u64 off |
//	            u64 n | ints data | u8 code | u64 operand
//	RMA_RESP := u64 callID | u8 ok | ok: (ints data | u64 old) / !ok: str error
//	ABORT    := u32 from | str msg
//	BYE      := (empty)
//	PING     := u64 t0 (sender's trace clock at send)
//	PONG     := u64 t0 (echoed) | u64 tPeer (responder's trace clock at reply)
//	OBS      := u32 from | u32 nbytes | bytes (an internal/obs MCMOBS1 payload)
//
// Version 2 adds the per-part encoding byte on POST: encoding 1 carries the
// payload through the delta-varint codec of internal/wire (the compression
// the metering layer accounts as Meter.WordsEnc). Senders pick the encoding
// per world — raw unless the world runs with mpi.RunConfig.Compress — and
// receivers accept either, so the choice is a sender-local matter; the
// version byte still fences off v1 binaries, which cannot parse the part
// header at all.
//
// Version 3 adds the PING frame, the heartbeat of the failure detector: any
// inbound frame refreshes the sender's liveness, and PING exists so an idle
// but healthy peer keeps refreshing it. A v2 binary would treat PING as a
// protocol error, hence the bump.
//
// Version 4 turns the heartbeat into a Cristian clock probe and adds the
// observability shipping path. PING now carries the sender's trace
// timestamp and is answered with a PONG echoing it next to the responder's
// own clock; the sender combines the echo with its receive time into a
// per-peer clock-offset estimate (minimum-RTT filtered, applied only when
// traces merge — see internal/obs). OBS ships one process's encoded
// observability state to the coordinator at solve end (or as a last act
// before BYE). A v3 binary would reject the non-empty PING body and the
// two new frame types, hence the bump. PING, PONG and OBS are runtime
// plumbing, not solver traffic: none of them is counted by the fault
// injector's data-frame sequence or by Net.WireStats, so the deterministic
// fault schedule and the conformance-pinned wire accounting are identical
// with observability on or off (a slow link's injected delay does apply to
// them, so injected latency shows up in the RTT estimates).
//
// Version 5 deletes the FINISH frame (type 4), the read notice a buffer-
// lending collective used to wait for from every remote reader. POST
// carries its own copy of the payload, so no remote reader touches the
// sender's buffer: a generation retires in each process once the ranks
// hosted there have read it. A v4 binary would wait forever for notices a
// v5 peer never sends, hence the bump. Type byte 4 stays reserved so the
// other frame types keep their bytes; an inbound type-4 frame is an
// unexpected-frame error.
//
// Version 6 drops the expect and next words from RMA_REQ, the arguments of
// a retired compare-and-swap. A v5 peer would read a v6 request as short,
// hence the bump. The compare-and-swap op code (3) stays reserved: the
// target's window registry answers it, like any unknown op, with an error.
//
// The HELLO magic and version open every connection (both the rendezvous
// dial and the mesh dials), so a version-skewed or foreign peer is rejected
// before any traffic flows. A frame body is capped at maxFrame bytes;
// payloads are []int64 throughout, matching the mailbox model.

// wireMagic and wireVersion identify the protocol on every new connection.
const (
	wireMagic   = "MCMNET1"
	wireVersion = 6
)

// maxFrame caps one frame body (1 GiB), a guard against corrupted length
// prefixes rather than a practical limit.
const maxFrame = 1 << 30

// The POST part payload encodings.
const (
	encRaw   byte = 0 // ints: u32 count | count × u64
	encDelta byte = 1 // delta-varint: u32 count | u32 nbytes | bytes
)

// The frame types.
const (
	frameHello byte = iota + 1
	frameRoster
	framePost
	_ // 4: FINISH, retired in version 5
	frameRMAReq
	frameRMAResp
	frameAbort
	frameBye
	framePing
	framePong
	frameObs
)

// frameName renders a frame type for error messages.
func frameName(t byte) string {
	switch t {
	case frameHello:
		return "HELLO"
	case frameRoster:
		return "ROSTER"
	case framePost:
		return "POST"
	case frameRMAReq:
		return "RMA_REQ"
	case frameRMAResp:
		return "RMA_RESP"
	case frameAbort:
		return "ABORT"
	case frameBye:
		return "BYE"
	case framePing:
		return "PING"
	case framePong:
		return "PONG"
	case frameObs:
		return "OBS"
	default:
		return fmt.Sprintf("frame(%d)", t)
	}
}

// The compound fields of the frame bodies, over the wire package's
// Writer and Reader.

// writeInts writes an ints field: u32 count | count × u64.
func writeInts(w *wire.Writer, v []int64) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.I64(x)
	}
}

func readInts(r *wire.Reader) []int64 {
	v := make([]int64, r.Count(8))
	for i := range v {
		v[i] = r.I64()
	}
	return v
}

func writeRanks(w *wire.Writer, rs []int) {
	w.U32(uint32(len(rs)))
	for _, r := range rs {
		w.U32(uint32(r))
	}
}

// readRanks reads a rank list into rs's storage when it has the room.
func readRanks(r *wire.Reader, rs []int) []int {
	rs = resize(rs, r.Count(4))
	for i := range rs {
		rs[i] = int(r.U32())
	}
	return rs
}

// writePart writes one POST part payload under the chosen encoding.
func writePart(w *wire.Writer, v []int64, compress bool) {
	if !compress {
		w.U8(encRaw)
		writeInts(w, v)
		return
	}
	w.U8(encDelta)
	w.U32(uint32(len(v)))
	lenOff := len(w.Buf)
	w.U32(0) // nbytes backpatched below
	w.Buf = wire.AppendEncoded(w.Buf, v)
	binary.LittleEndian.PutUint32(w.Buf[lenOff:], uint32(len(w.Buf)-lenOff-4))
}

// readPart reads one POST part payload into a buffer of its own from take,
// dispatching on its encoding byte. take is only asked once the count has
// passed the reader's guard, so a forged count never reaches it.
func readPart(r *wire.Reader, take func(n int) []int64) []int64 {
	switch r.U8() {
	case encRaw:
		n := r.Count(8)
		if r.Err() != nil {
			return nil
		}
		v := take(n)
		for i := range v {
			v[i] = r.I64()
		}
		return v
	case encDelta:
		count := int(r.U32())
		return r.Delta(count, int(r.U32()), take)
	default:
		r.Fail(errPartEncoding)
		return nil
	}
}

var (
	errPartEncoding = errors.New("tcpnet: unknown part encoding")
	errAbsentPart   = errors.New("tcpnet: absent POST slot carries a part")
)

// writePost writes the POST body that carries member i's part: the
// envelope, then one slot per member, of which only slot i may be present,
// and only if its part is non-nil (posted). An absent slot is a zero flag
// and an empty raw part.
func writePost(w *wire.Writer, msg *mpi.PostMsg, i int, compress bool) {
	w.Str(msg.Comm)
	writeRanks(w, msg.Ranks)
	w.U32(uint32(msg.Src))
	w.I64(msg.Gen)
	w.Str(msg.Op)
	w.U32(uint32(len(msg.Ranks)))
	for j := range msg.Ranks {
		if j == i && msg.Parts[j] != nil {
			w.U8(1)
			writePart(w, msg.Parts[j], compress)
		} else {
			w.U8(0)
			writePart(w, nil, false)
		}
	}
}

// frameErr reports a body's first decode failure, trailing bytes included.
func frameErr(r *wire.Reader, frame byte) error {
	if err := r.Done(); err != nil {
		return fmt.Errorf("tcpnet: malformed %s frame: %w", frameName(frame), err)
	}
	return nil
}

// frameOut is a connection's write-side scratch, used under the writer's
// lock: the header array and the gather list that sends it with the body in
// one write, so a direct-path frame neither copies its body nor allocates.
type frameOut struct {
	hdr  [5]byte
	vec  [2][]byte
	bufs net.Buffers
}

// writeFrame sends one frame: length prefix, type byte, body.
func writeFrame(w io.Writer, out *frameOut, typ byte, body []byte) error {
	if len(body) > maxFrame {
		return fmt.Errorf("tcpnet: %s frame body %d bytes exceeds cap %d", frameName(typ), len(body), maxFrame)
	}
	binary.LittleEndian.PutUint32(out.hdr[:], uint32(len(body)))
	out.hdr[4] = typ
	out.vec = [2][]byte{out.hdr[:], body}
	// An empty body stays off the list: a writer without gathered writes
	// gets one Write per entry, and a zero-length Write on a pipe blocks
	// until the far side reads.
	out.bufs = out.vec[:1]
	if len(body) > 0 {
		out.bufs = out.vec[:]
	}
	_, err := out.bufs.WriteTo(w)
	out.vec[1] = nil // the caller owns body again
	return err
}

// frameIn is one connection's read side: the frame header and a body
// buffer every frame is read into. Every body decoder copies out what it
// keeps, so the next frame may overwrite the last body.
type frameIn struct {
	hdr  [5]byte
	body []byte
}

// readFrame receives one frame into in, enforcing the body cap. The body
// it returns aliases in's buffer and is valid until the next read.
func readFrame(r io.Reader, in *frameIn) (byte, []byte, error) {
	if _, err := io.ReadFull(r, in.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(in.hdr[:4])
	typ := in.hdr[4]
	if n > maxFrame {
		return 0, nil, fmt.Errorf("tcpnet: %s frame body %d bytes exceeds cap %d", frameName(typ), n, maxFrame)
	}
	// The body is read in bounded chunks, and the buffer grows by at most one
	// chunk past the bytes already read: a corrupt or hostile length prefix
	// then costs at most one chunk of memory before the missing payload bytes
	// fail the read, instead of a maxFrame-sized up-front allocation.
	body := in.body[:0]
	for len(body) < int(n) {
		off := len(body)
		step := min(int(n)-off, frameReadChunk)
		if off+step > cap(body) {
			grown := make([]byte, off, min(max(2*cap(body), off+step), off+frameReadChunk))
			copy(grown, body)
			body = grown
		}
		body = body[:off+step]
		if _, err := io.ReadFull(r, body[off:]); err != nil {
			in.body = body[:0]
			return 0, nil, fmt.Errorf("tcpnet: short %s frame: %w", frameName(typ), err)
		}
	}
	in.body = body
	return typ, body, nil
}

// frameReadChunk bounds how much body memory readFrame commits per read.
const frameReadChunk = 1 << 20

// The body decoders below are pure functions of the frame bytes, shared by
// the read loop and the fuzz targets: whatever a peer (or the fuzzer) puts
// on the wire either decodes to a well-formed value or returns an error —
// never a panic, never a silently wrong message.

// decodePost decodes a POST frame body into msg, the connection's own
// envelope: its Ranks and Parts slices are reused once they have the room,
// and its Comm and Op strings are kept when the bytes match, so a warm
// envelope costs no allocation. Each present part gets a buffer of its own
// from take (World.Payloads().Take on the read loop), never the one the
// envelope held before: DeliverPost has handed that one to the mailbox. An
// absent slot decodes to a nil part and must be what writePost writes for
// one, an empty raw part: anything else fails the frame before take is
// asked. On error msg holds a partial decode.
func decodePost(body []byte, msg *mpi.PostMsg, take func(n int) []int64) error {
	rb := wire.NewReader(body)
	readStr(&rb, &msg.Comm)
	msg.Ranks = readRanks(&rb, msg.Ranks)
	msg.Src = int(rb.U32())
	msg.Gen = rb.I64()
	readStr(&rb, &msg.Op)
	nparts := int(rb.U32())
	if rb.Err() != nil || nparts != len(msg.Ranks) {
		return fmt.Errorf("tcpnet: POST parts/ranks mismatch")
	}
	msg.Parts = resize(msg.Parts, nparts)
	for i := range msg.Parts {
		msg.Parts[i] = nil
		if rb.U8() != 0 {
			msg.Parts[i] = readPart(&rb, take)
		} else if rb.U8() != encRaw || rb.U32() != 0 {
			rb.Fail(errAbsentPart)
		}
	}
	return frameErr(&rb, framePost)
}

// readStr reads a str field into *s, keeping the string *s already holds
// when the bytes are equal.
func readStr(r *wire.Reader, s *string) {
	if b := r.Next(int(r.U32())); string(b) != *s {
		*s = string(b)
	}
}

// resize returns s with length n, reusing its storage when it has the room.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// decodeRMAReq decodes an RMA_REQ frame body.
func decodeRMAReq(body []byte) (id uint64, req *mpi.RMAReq, err error) {
	rb := wire.NewReader(body)
	id = rb.U64()
	req = &mpi.RMAReq{Win: rb.Str(), Member: int(rb.U32()), Op: mpi.RMAOp(rb.U8()),
		Off: int(rb.I64()), N: int(rb.I64()), Data: readInts(&rb), Code: mpi.OpCode(rb.U8())}
	req.Operand = rb.I64()
	if err := frameErr(&rb, frameRMAReq); err != nil {
		return 0, nil, err
	}
	return id, req, nil
}

// decodeRMAResp decodes an RMA_RESP frame body; remoteErr carries the
// remote side's failure rendering when ok is false.
func decodeRMAResp(body []byte) (id uint64, resp *mpi.RMAResp, remoteErr string, ok bool, err error) {
	rb := wire.NewReader(body)
	id = rb.U64()
	ok = rb.U8() != 0
	if ok {
		resp = &mpi.RMAResp{Data: readInts(&rb), Old: rb.I64()}
	} else {
		remoteErr = rb.Str()
	}
	if err := frameErr(&rb, frameRMAResp); err != nil {
		return 0, nil, "", false, err
	}
	return id, resp, remoteErr, ok, nil
}

// decodeAbort decodes an ABORT frame body.
func decodeAbort(body []byte) (from int, msg string, err error) {
	rb := wire.NewReader(body)
	from = int(rb.U32())
	msg = rb.Str()
	if err := frameErr(&rb, frameAbort); err != nil {
		return 0, "", err
	}
	return from, msg, nil
}

// encodePing builds a PING body: the sender's trace clock at send time.
func encodePing(t0 int64) []byte {
	var wb wire.Writer
	wb.I64(t0)
	return wb.Buf
}

// decodePing decodes a PING frame body.
func decodePing(body []byte) (t0 int64, err error) {
	rb := wire.NewReader(body)
	t0 = rb.I64()
	if err := frameErr(&rb, framePing); err != nil {
		return 0, err
	}
	return t0, nil
}

// encodePong builds a PONG body: the probe's echoed timestamp plus the
// responder's own trace clock at reply time.
func encodePong(t0, tPeer int64) []byte {
	var wb wire.Writer
	wb.I64(t0)
	wb.I64(tPeer)
	return wb.Buf
}

// decodePong decodes a PONG frame body.
func decodePong(body []byte) (t0, tPeer int64, err error) {
	rb := wire.NewReader(body)
	t0 = rb.I64()
	tPeer = rb.I64()
	if err := frameErr(&rb, framePong); err != nil {
		return 0, 0, err
	}
	return t0, tPeer, nil
}

// encodeObs builds an OBS body: the shipping rank plus its opaque
// internal/obs payload.
func encodeObs(from int, payload []byte) []byte {
	wb := wire.Writer{Buf: make([]byte, 0, 8+len(payload))}
	wb.U32(uint32(from))
	wb.Bytes(payload)
	return wb.Buf
}

// decodeObs decodes an OBS frame body. The payload stays opaque here — the
// internal/obs decoder owns its format and is fuzz-hardened separately.
func decodeObs(body []byte) (from int, payload []byte, err error) {
	rb := wire.NewReader(body)
	from = int(rb.U32())
	payload = rb.Bytes()
	if err := frameErr(&rb, frameObs); err != nil {
		return 0, nil, err
	}
	return from, payload, nil
}

// parseHello decodes a HELLO frame body: magic, version, rank, mesh
// listen address.
func parseHello(body []byte) (rank int, listenAddr string, err error) {
	rb := wire.NewReader(body)
	if string(rb.Next(len(wireMagic))) != wireMagic {
		return 0, "", fmt.Errorf("tcpnet: bad magic in hello (foreign peer?)")
	}
	if v := rb.U8(); v != wireVersion {
		return 0, "", fmt.Errorf("tcpnet: peer speaks wire version %d, this build speaks %d", v, wireVersion)
	}
	rank = int(rb.U32())
	listenAddr = rb.Str()
	if err := frameErr(&rb, frameHello); err != nil {
		return 0, "", err
	}
	return rank, listenAddr, nil
}

// parseRoster decodes a ROSTER frame body: the world's mesh addresses plus
// the coordinator's opaque config blob.
func parseRoster(body []byte) (addrs []string, config []byte, err error) {
	rb := wire.NewReader(body)
	size := rb.Count(4)
	if rb.Err() != nil || size <= 0 || size > 1<<20 {
		return nil, nil, fmt.Errorf("tcpnet: malformed roster size")
	}
	addrs = make([]string, size)
	for i := range addrs {
		addrs[i] = rb.Str()
	}
	config = rb.Bytes()
	if err := frameErr(&rb, frameRoster); err != nil {
		return nil, nil, err
	}
	return addrs, config, nil
}
