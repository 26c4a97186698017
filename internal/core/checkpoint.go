package core

import (
	"fmt"
	"hash/fnv"
	"time"

	"mcmdist/internal/dvec"
	"mcmdist/internal/semiring"
	"mcmdist/internal/wire"
)

// checkpointMagic opens every encoded checkpoint. Format version 2: the
// header gained the engine id (recovery refuses cross-engine resumes) and
// the mate vectors are stored delta-varint compressed (internal/wire, the
// same codec the tcp transport applies to id streams) instead of as raw
// 8-byte words — mate vectors are mostly sorted-ish small integers with
// long None runs, so the payload typically shrinks 4-6x.
const checkpointMagic = "MCMCKPT2"

// Checkpoint is a phase-boundary snapshot of a distributed matching run.
// MCM-DIST's invariant (the observation this subsystem exploits) is that
// between augmentation phases the mate vectors always encode a valid
// matching — the same property that lets the paper seed MCM from any
// maximal matching — so a solve killed mid-phase can restart from the last
// snapshot and lose at most one phase of work. The vectors are stored in
// the solver's (possibly permuted) global index space.
type Checkpoint struct {
	Phase       int    // augmentation phases completed when taken (0 = just initialized)
	Cardinality int    // matching cardinality at the snapshot
	ConfigHash  uint64 // hash binding the snapshot to its Config and problem shape
	Engine      string // name of the engine that produced the snapshot
	N1, N2      int    // global rows and columns
	MateR       []int64
	MateC       []int64
}

// EncodedSize returns the exact byte length Encode produces for this
// checkpoint: magic, five uint64 header words, the engine id, then the two
// delta-varint mate payloads, each with a uvarint byte-length prefix.
// Unlike the fixed v1 size it depends on the vector contents, which is the
// point of the compression.
func (ck *Checkpoint) EncodedSize() int {
	rlen := wire.EncodedLen(ck.MateR)
	clen := wire.EncodedLen(ck.MateC)
	return len(checkpointMagic) + 5*8 +
		wire.UvarintLen(uint64(len(ck.Engine))) + len(ck.Engine) +
		wire.UvarintLen(uint64(rlen)) + rlen +
		wire.UvarintLen(uint64(clen)) + clen
}

// Encode serializes the checkpoint into the little-endian v2 format
// (magic, header, engine id, compressed MateR, compressed MateC) —
// suitable for a file or an object store.
func (ck *Checkpoint) Encode() []byte {
	w := wire.Writer{Buf: append(make([]byte, 0, ck.EncodedSize()), checkpointMagic...)}
	for _, v := range []uint64{ck.ConfigHash, uint64(ck.Phase), uint64(ck.Cardinality), uint64(ck.N1), uint64(ck.N2)} {
		w.U64(v)
	}
	w.Uvarint(uint64(len(ck.Engine)))
	w.Buf = append(w.Buf, ck.Engine...)
	for _, mate := range [][]int64{ck.MateR, ck.MateC} {
		w.Uvarint(uint64(wire.EncodedLen(mate)))
		w.Buf = wire.AppendEncoded(w.Buf, mate)
	}
	return w.Buf
}

// DecodeCheckpoint parses an Encode result, validating the magic, every
// length prefix, and exact consumption: a blob that is truncated, padded,
// or bit-flipped inside a varint decodes to an error, never to a silently
// wrong matching (the recovery driver additionally verifies restored
// matchings against the matrix). A mate vector's length comes from the
// header and must fit its payload, so a forged shape is refused before
// anything is sized from it.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	r := wire.NewReader(data)
	if string(r.Next(len(checkpointMagic))) != checkpointMagic {
		return nil, fmt.Errorf("core: not a %s checkpoint (%d bytes)", checkpointMagic, len(data))
	}
	ck := &Checkpoint{ConfigHash: r.U64(), Phase: int(r.U64()), Cardinality: int(r.U64()),
		N1: int(r.U64()), N2: int(r.U64())}
	if ck.N1 < 0 || ck.N2 < 0 {
		return nil, fmt.Errorf("core: checkpoint header claims negative shape %dx%d", ck.N1, ck.N2)
	}
	ck.Engine = string(r.Next(int(r.Uvarint())))
	ck.MateR = r.Delta(ck.N1, int(r.Uvarint()), nil)
	ck.MateC = r.Delta(ck.N2, int(r.Uvarint()), nil)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("core: malformed checkpoint: %w", err)
	}
	return ck, nil
}

// CheckpointHash fingerprints the parts of the configuration that determine
// the solve trajectory for an n1 x n2 problem — engine, initializer,
// semiring, augmentation, pruning, direction, permutation and grid — so a
// restore onto a changed configuration is rejected instead of silently
// diverging. Enums enter by name.
func (c Config) CheckpointHash(n1, n2 int) uint64 {
	c = c.withDefaults()
	h := fnv.New64a()
	fmt.Fprintf(h, "v5|%s|%d|%d|%d|%v|%v|%v|%v|%v|%v|%d|%d",
		c.Engine, n1, n2, c.Procs, c.Init, c.AddOp, c.Augment,
		c.DisablePrune, c.Direction, c.Permute, c.Seed, c.GridRows*1000+c.GridCols)
	return h.Sum64()
}

// maybeCheckpoint takes a phase-boundary checkpoint when the configuration
// asks for one: after the initializer (phase 0) and after every
// CheckpointEvery-th augmentation phase. Collective — the gate is
// SPMD-replicated and every rank joins the cardinality reduction and the
// gathers, but only rank 0 assembles the full vectors, packages the snapshot,
// counts its encoded size in CheckpointBytes and delivers it to
// OnCheckpoint; the other ranks drain the gathers without building a copy.
// Every rank counts Checkpoints and CheckpointWall.
func (s *Solver) maybeCheckpoint(phase int, mater, matec *dvec.Dense) {
	if s.Cfg.CheckpointEvery <= 0 || s.Cfg.OnCheckpoint == nil {
		return
	}
	if phase != 0 && phase%s.Cfg.CheckpointEvery != 0 {
		return
	}
	begin := time.Now()
	s.tr.track(OpOther, func() {
		card := s.N2 - s.countUnmatched(matec)
		root := s.G.World.Rank() == 0
		fullR := mater.Gather(root)
		fullC := matec.Gather(root)
		if !root {
			return
		}
		ck := &Checkpoint{
			Phase:       phase,
			Cardinality: card,
			ConfigHash:  s.Cfg.CheckpointHash(s.N1, s.N2),
			Engine:      s.Cfg.Engine,
			N1:          s.N1,
			N2:          s.N2,
			MateR:       fullR,
			MateC:       fullC,
		}
		s.Stats.CheckpointBytes += int64(ck.EncodedSize())
		s.Cfg.OnCheckpoint(ck)
	})
	s.Stats.Checkpoints++
	s.Stats.CheckpointWall += time.Since(begin)
	s.G.RT.Tracer().Instant("checkpoint", int64(phase))
}

// RestoreMates rebuilds this rank's mate-vector pieces from a checkpoint,
// the restart half of the phase-boundary protocol, once ck.admit has
// accepted it. The restored cardinality becomes this attempt's
// InitCardinality (the checkpoint plays the role of the initializer).
func (s *Solver) RestoreMates(ck *Checkpoint) (mater, matec *dvec.Dense, err error) {
	if err := ck.admit(s.Cfg, s.N1, s.N2); err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	s.tr.track(OpInit, func() {
		mater = dvec.HoldDense(s.RowL, 0)
		copy(mater.Local, ck.MateR[s.RowL.MyRange().Lo:])
		matec = dvec.HoldDense(s.ColL, 0)
		copy(matec.Local, ck.MateC[s.ColL.MyRange().Lo:])
	})
	s.Stats.InitCardinality = ck.Cardinality
	return mater, matec, nil
}

// InitOrRestore is the attempt entry point of a recoverable solve: restore
// from Config.Resume when one is set, otherwise run the configured maximal
// initializer and take the phase-0 checkpoint. Collective.
func (s *Solver) InitOrRestore() (mater, matec *dvec.Dense, err error) {
	if s.Cfg.Resume != nil {
		return s.RestoreMates(s.Cfg.Resume)
	}
	mater, matec = s.MaximalInit()
	s.maybeCheckpoint(0, mater, matec)
	return mater, matec, nil
}

// admit is the one admission check of a checkpoint against the n1×n2
// problem and the configuration that would resume it: the snapshot's shape,
// engine and config hash must match. A checkpoint taken by one engine is
// never resumed by another, even when both could continue from the matching
// (their Stats and trajectories would silently diverge).
func (ck *Checkpoint) admit(cfg Config, n1, n2 int) error {
	if ck.N1 != n1 || ck.N2 != n2 {
		return fmt.Errorf("checkpoint is %dx%d, problem is %dx%d", ck.N1, ck.N2, n1, n2)
	}
	if len(ck.MateR) != n1 || len(ck.MateC) != n2 {
		return fmt.Errorf("checkpoint mate vectors are %dx%d, want %dx%d", len(ck.MateR), len(ck.MateC), n1, n2)
	}
	if want := cfg.Engine; ck.Engine != "" && ck.Engine != want {
		return fmt.Errorf("checkpoint was taken by engine %q, refusing cross-engine resume with %q", ck.Engine, want)
	}
	if want := cfg.CheckpointHash(n1, n2); ck.ConfigHash != want {
		return fmt.Errorf("checkpoint config hash %#x does not match current config %#x", ck.ConfigHash, want)
	}
	return nil
}

// countMatched returns how many entries of a full mate vector are matched
// (used to cross-check a checkpoint's recorded cardinality).
func countMatched(mate []int64) int {
	n := 0
	for _, v := range mate {
		if v != semiring.None {
			n++
		}
	}
	return n
}
