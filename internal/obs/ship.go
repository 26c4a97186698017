package obs

// Cross-process shipping and merging of the observability plane.
//
// A multi-process world records per-process: each endpoint's Collector only
// ever sees the ranks its process hosts. At solve end every worker process
// encodes its collector state as a ProcObs — span rings, iteration samples
// and world events — and ships the bytes
// to the coordinator over the transport (the tcpnet OBS frame). The
// coordinator calls InstallRemote with the per-peer clock offset estimated
// from the heartbeat PING/PONG exchange, which shifts every remote
// timestamp into the coordinator's trace timebase at merge time; live
// clocks are never adjusted. After installation the ordinary exporters
// (WriteTrace, WriteSeriesCSV) produce world-level
// artifacts with no further changes.
//
// The same encoding, under its own magic, is the crash flight recorder: a
// process whose solve dies (abort, peer down, watchdog deadlock) persists a
// FlightDump — the tail of its span rings, the generation id and the
// cause — so a supervisor can assemble a post-mortem
// bundle across restarts. Both codecs are versioned by magic (the MCMCKPT
// idiom) and their decoders are fuzz-hardened: arbitrary bytes either
// decode or error, never panic or over-allocate.

import (
	"fmt"
	"os"
	"sort"

	"mcmdist/internal/wire"
)

// Codec magics. A format change bumps the trailing digit; decoders match
// exactly, so an old reader rejects a new dump loudly instead of
// misparsing it.
const (
	procObsMagic = "MCMOBS3"
	flightMagic  = "MCMFDR2"
)

// FlightSpanTail bounds how many trailing spans per rank a flight dump
// keeps: enough to see what the rank was doing when the world died, small
// enough to write during teardown.
const FlightSpanTail = 64

// RankObs is one rank's share of a shipped or dumped observation: its span
// ring (unwrapped), drop count and iteration samples.
type RankObs struct {
	Rank    int
	Spans   []Span
	Dropped uint64
	Samples []IterSample
}

// ProcObs is one process's whole observability state in transit: the ranks
// it hosts and the world events its runtime recorded (among them the
// heartbeat's hb.rtt probes).
type ProcObs struct {
	Gen    int64
	Ranks  []RankObs
	Events []Event
}

// FlightDump is the crash flight recorder's payload: what every local rank
// was doing (its span tail) when the world died, plus the generation
// and the rendered cause.
type FlightDump struct {
	Gen   int64
	Cause string
	Ranks []RankObs
}

// Host declares ranks as hosted by this process: their goroutines record
// into this collector, so InstallRemote never installs a payload for them.
// The declaration must come before any payload that re-encodes them can
// arrive; the solve declares its transport's local ranks before the world
// launches.
func (c *Collector) Host(ranks []int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.hosted == nil {
		c.hosted = make(map[int]bool)
	}
	for _, r := range ranks {
		c.hosted[r] = true
	}
	c.mu.Unlock()
}

// Export captures the collector's state for the given ranks as a ProcObs.
// Call after the local ranks have finished recording. A collector exports
// only ranks it records, so Export declares them hosted (see Host).
func (c *Collector) Export(ranks []int, gen int64) *ProcObs {
	if c == nil {
		return nil
	}
	c.Host(ranks)
	po := &ProcObs{Gen: gen, Events: c.Events()}
	for _, r := range ranks {
		ro := RankObs{Rank: r}
		if t := c.Tracer(r); t != nil {
			ro.Spans = t.Spans()
			ro.Dropped = t.Dropped()
		}
		if rec := c.Recorder(r); rec != nil {
			ro.Samples = rec.Samples()
		}
		po.Ranks = append(po.Ranks, ro)
	}
	return po
}

// InstallRemote merges one remote process's observation into the
// collector, shifting every remote timestamp by offsetNs (the Cristian
// estimate mapping the peer's trace timebase onto ours — applied here, at
// merge time, never to a live clock). Within one remote rank every span
// shifts by the same offset, so relative order and nesting are preserved
// by construction.
//
// A rank hosted here (see Host) is skipped without looking at its tracer
// or recorder, which its own goroutine writes: that is the loopback shape
// where every endpoint shares one collector and the "remote" payload is a
// re-encoding of what is already recorded. When every carried rank is
// hosted here, the events of the payload are skipped too, so a shared
// collector is never double-counted.
func (c *Collector) InstallRemote(po *ProcObs, offsetNs int64) {
	if c == nil || po == nil {
		return
	}
	var remote []RankObs
	c.mu.Lock()
	for _, ro := range po.Ranks {
		if !c.hosted[ro.Rank] {
			remote = append(remote, ro)
		}
	}
	c.mu.Unlock()
	if len(po.Ranks) > 0 && len(remote) == 0 {
		return
	}
	for _, ro := range remote {
		r := ro.Rank
		if t := c.Tracer(r); t != nil && len(ro.Spans) > 0 {
			for _, sp := range ro.Spans {
				sp.Start += offsetNs
				t.record(sp)
			}
			c.mu.Lock()
			c.remoteDropped += ro.Dropped
			c.mu.Unlock()
		}
		if rec := c.Recorder(r); rec != nil {
			for _, s := range ro.Samples {
				s.Rank = r
				rec.samples = append(rec.samples, s)
			}
		}
	}
	if len(po.Events) > 0 {
		evs := make([]Event, len(po.Events))
		for i, ev := range po.Events {
			ev.At += offsetNs
			evs[i] = ev
		}
		c.AddEvents(evs)
	}
}

// BuildFlightDump captures the flight-recorder payload for the given local
// ranks: the last FlightSpanTail spans of each ring, the generation and
// the cause.
func (c *Collector) BuildFlightDump(ranks []int, gen int64, cause string) *FlightDump {
	d := &FlightDump{Gen: gen, Cause: cause}
	for _, r := range ranks {
		ro := RankObs{Rank: r}
		if c != nil {
			if t := c.Tracer(r); t != nil {
				spans := t.Spans()
				if len(spans) > FlightSpanTail {
					spans = spans[len(spans)-FlightSpanTail:]
				}
				ro.Spans = spans
				ro.Dropped = t.Dropped()
			}
		}
		d.Ranks = append(d.Ranks, ro)
	}
	return d
}

// LastSpan returns the most recent span of a rank in the dump (zero Span,
// false when the rank recorded nothing).
func (d *FlightDump) LastSpan(rank int) (Span, bool) {
	for _, ro := range d.Ranks {
		if ro.Rank == rank && len(ro.Spans) > 0 {
			return ro.Spans[len(ro.Spans)-1], true
		}
	}
	return Span{}, false
}

// WriteFile persists the dump. The file is written whole, then renamed
// into place, so a dump either exists completely or not at all — a
// half-written post-mortem is worse than none.
func (d *FlightDump) WriteFile(path string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, d.Encode(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadFlightDump loads and decodes a dump file.
func ReadFlightDump(path string) (*FlightDump, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeFlightDump(data)
}

// --- binary codec ---------------------------------------------------------

// The minimum encoded sizes of the counted records, which bound how many of
// them a count may claim in the bytes that remain.
const (
	minSpan    = 1 + 4 + 3*8 + 8 // kind, name length, start/dur/arg, flow
	minSample  = 13*8 + 1        // thirteen i64 fields, pull
	minRankObs = 4 + 4 + 8 + 4   // rank, two empty counts, dropped
	minEvent   = 4 + 3*8         // name length, rank, at, arg
)

func writeSpan(w *wire.Writer, sp Span) {
	w.U8(byte(sp.Kind))
	w.Str(sp.Name)
	w.I64(sp.Start)
	w.I64(sp.Dur)
	w.I64(sp.Arg)
	w.U64(sp.Flow)
}

func readSpan(r *wire.Reader) Span {
	sp := Span{Kind: Kind(r.U8()), Name: r.Str()}
	sp.Start = r.I64()
	sp.Dur = r.I64()
	sp.Arg = r.I64()
	sp.Flow = r.U64()
	return sp
}

func writeSample(w *wire.Writer, v IterSample) {
	w.I64(int64(v.Phase))
	w.I64(int64(v.Iteration))
	w.I64(int64(v.Frontier))
	w.I64(int64(v.NewPaths))
	w.I64(int64(v.Matched))
	if v.Pull {
		w.U8(1)
	} else {
		w.U8(0)
	}
	w.I64(v.WallNs)
	w.I64(v.Msgs)
	w.I64(v.Words)
	w.I64(v.WordsEncoded)
	w.I64(v.CommNs)
	w.I64(v.ExposedNs)
	w.I64(v.PoolBusyNs)
	w.I64(v.PoolSpanNs)
}

func readSample(r *wire.Reader) IterSample {
	var v IterSample
	v.Phase = int(r.I64())
	v.Iteration = int(r.I64())
	v.Frontier = int(r.I64())
	v.NewPaths = int(r.I64())
	v.Matched = int(r.I64())
	v.Pull = r.U8() != 0
	v.WallNs = r.I64()
	v.Msgs = r.I64()
	v.Words = r.I64()
	v.WordsEncoded = r.I64()
	v.CommNs = r.I64()
	v.ExposedNs = r.I64()
	v.PoolBusyNs = r.I64()
	v.PoolSpanNs = r.I64()
	return v
}

func writeRankObs(w *wire.Writer, ro RankObs) {
	w.U32(uint32(ro.Rank))
	w.U32(uint32(len(ro.Spans)))
	for _, sp := range ro.Spans {
		writeSpan(w, sp)
	}
	w.U64(ro.Dropped)
	w.U32(uint32(len(ro.Samples)))
	for _, sm := range ro.Samples {
		writeSample(w, sm)
	}
}

func readRankObs(r *wire.Reader) RankObs {
	ro := RankObs{Rank: int(int32(r.U32()))}
	nspans := r.Count(minSpan)
	for i := 0; i < nspans && r.Err() == nil; i++ {
		ro.Spans = append(ro.Spans, readSpan(r))
	}
	ro.Dropped = r.U64()
	nsamples := r.Count(minSample)
	for i := 0; i < nsamples && r.Err() == nil; i++ {
		ro.Samples = append(ro.Samples, readSample(r))
	}
	return ro
}

// Encode serializes the observation under the MCMOBS3 magic.
func (po *ProcObs) Encode() []byte {
	w := wire.Writer{Buf: []byte(procObsMagic)}
	w.I64(po.Gen)
	w.U32(uint32(len(po.Ranks)))
	for _, ro := range po.Ranks {
		writeRankObs(&w, ro)
	}
	w.U32(uint32(len(po.Events)))
	for _, ev := range po.Events {
		w.Str(ev.Name)
		w.I64(int64(ev.Rank))
		w.I64(ev.At)
		w.I64(ev.Arg)
	}
	return w.Buf
}

// DecodeProcObs parses a shipped observation. Arbitrary input either
// decodes or errors; it never panics.
func DecodeProcObs(data []byte) (*ProcObs, error) {
	r := wire.NewReader(data)
	if string(r.Next(len(procObsMagic))) != procObsMagic {
		return nil, fmt.Errorf("obs: not a %s observation", procObsMagic)
	}
	po := &ProcObs{Gen: r.I64()}
	nranks := r.Count(minRankObs)
	for i := 0; i < nranks && r.Err() == nil; i++ {
		po.Ranks = append(po.Ranks, readRankObs(&r))
	}
	nevents := r.Count(minEvent)
	for i := 0; i < nevents && r.Err() == nil; i++ {
		ev := Event{Name: r.Str()}
		ev.Rank = int(r.I64())
		ev.At = r.I64()
		ev.Arg = r.I64()
		po.Events = append(po.Events, ev)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("obs: malformed %s observation: %w", procObsMagic, err)
	}
	return po, nil
}

// Encode serializes the dump under the MCMFDR2 magic.
func (d *FlightDump) Encode() []byte {
	w := wire.Writer{Buf: []byte(flightMagic)}
	w.I64(d.Gen)
	w.Str(d.Cause)
	w.U32(uint32(len(d.Ranks)))
	for _, ro := range d.Ranks {
		writeRankObs(&w, ro)
	}
	return w.Buf
}

// DecodeFlightDump parses a flight-recorder dump. Arbitrary input either
// decodes or errors; it never panics.
func DecodeFlightDump(data []byte) (*FlightDump, error) {
	r := wire.NewReader(data)
	if string(r.Next(len(flightMagic))) != flightMagic {
		return nil, fmt.Errorf("obs: not a %s flight dump", flightMagic)
	}
	d := &FlightDump{Gen: r.I64(), Cause: r.Str()}
	nranks := r.Count(minRankObs)
	for i := 0; i < nranks && r.Err() == nil; i++ {
		d.Ranks = append(d.Ranks, readRankObs(&r))
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("obs: malformed %s flight dump: %w", flightMagic, err)
	}
	return d, nil
}

// sortSpansForTrack orders one track's spans for emission: by start, then
// longer first so a parent precedes its children — the order that keeps
// per-track timestamps monotone in the written trace and lets a validator
// assert it.
func sortSpansForTrack(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Dur > spans[j].Dur
	})
}
