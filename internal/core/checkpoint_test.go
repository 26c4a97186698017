package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mcmdist/internal/dvec"
	"mcmdist/internal/matching"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
	"mcmdist/internal/verify"
)

func TestCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	ck := &Checkpoint{
		Phase:       3,
		Cardinality: 2,
		ConfigHash:  0xdeadbeefcafef00d,
		Engine:      EngineBFS,
		N1:          4,
		N2:          3,
		MateR:       []int64{1, semiring.None, 0, 2},
		MateC:       []int64{2, 0, 3},
	}
	data := ck.Encode()
	if len(data) != ck.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(data), ck.EncodedSize())
	}
	got, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Phase != ck.Phase || got.Cardinality != ck.Cardinality ||
		got.ConfigHash != ck.ConfigHash || got.Engine != ck.Engine ||
		got.N1 != ck.N1 || got.N2 != ck.N2 {
		t.Fatalf("header mismatch: %+v vs %+v", got, ck)
	}
	for i := range ck.MateR {
		if got.MateR[i] != ck.MateR[i] {
			t.Fatalf("MateR[%d] = %d, want %d", i, got.MateR[i], ck.MateR[i])
		}
	}
	for j := range ck.MateC {
		if got.MateC[j] != ck.MateC[j] {
			t.Fatalf("MateC[%d] = %d, want %d", j, got.MateC[j], ck.MateC[j])
		}
	}
}

func TestDecodeCheckpointRejectsGarbage(t *testing.T) {
	ck := &Checkpoint{Engine: EngineBFS, N1: 2, N2: 2, MateR: []int64{0, 1}, MateC: []int64{0, 1}}
	good := ck.Encode()

	if _, err := DecodeCheckpoint(good[:10]); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	if _, err := DecodeCheckpoint(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := DecodeCheckpoint(good[:len(good)-2]); err == nil {
		t.Fatal("short mate vectors accepted")
	}
	if _, err := DecodeCheckpoint(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// A version-1 blob must be rejected, not misdecoded: fake one by
	// splicing the old magic in.
	v1 := append([]byte(nil), good...)
	copy(v1, "MCMCKPT1")
	if _, err := DecodeCheckpoint(v1); err == nil {
		t.Fatal("format version 1 blob accepted")
	}
	// A forged header claiming 2^40 rows must be refused before the decoder
	// sizes a mate vector from it, not kill the process allocating one.
	forged := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(forged[len(checkpointMagic)+3*8:], 1<<40)
	if _, err := DecodeCheckpoint(forged); err == nil {
		t.Fatal("forged N1 accepted")
	}
}

// TestCheckpointRoundtripShapes mirrors the tcpnet TestPartRoundtrip: the
// delta-varint mate payloads must survive arbitrary vector contents —
// mostly-None runs, sorted runs, hostile random values — and the encoding
// must actually be smaller than the 8-bytes-per-entry v1 layout on the
// mostly-matched vectors real checkpoints hold.
func TestCheckpointRoundtripShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sortedish := make([]int64, 2048)
	for i := range sortedish {
		sortedish[i] = int64(i)*3 + rng.Int63n(3)
	}
	hostile := make([]int64, 257)
	for i := range hostile {
		hostile[i] = rng.Int63() - rng.Int63()
	}
	allNone := make([]int64, 512)
	for i := range allNone {
		allNone[i] = semiring.None
	}
	vectors := [][]int64{nil, {}, {0}, {semiring.None}, sortedish, hostile, allNone}
	for vi, v := range vectors {
		ck := &Checkpoint{
			Engine: EngineBFSSingleSource,
			N1:     len(v), N2: len(v),
			MateR: v, MateC: append([]int64(nil), v...),
		}
		data := ck.Encode()
		if len(data) != ck.EncodedSize() {
			t.Fatalf("vector %d: encoded %d bytes, EncodedSize says %d", vi, len(data), ck.EncodedSize())
		}
		got, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatalf("vector %d: %v", vi, err)
		}
		if fmt.Sprint(got.MateR) != fmt.Sprint([]int64(v)) && len(v) > 0 {
			t.Fatalf("vector %d: roundtrip %v != %v", vi, got.MateR, v)
		}
	}
	// The v1 format spent 8*(n1+n2) bytes on the vectors; the identity-run
	// and all-None vectors must compress at least 4x below that.
	run := &Checkpoint{Engine: EngineBFS, N1: 2048, N2: 2048, MateR: sortedish, MateC: allNone[:0:0]}
	run.MateC = make([]int64, 2048)
	for i := range run.MateC {
		run.MateC[i] = semiring.None
	}
	if raw := 8 * (run.N1 + run.N2); run.EncodedSize()*4 >= raw {
		t.Fatalf("compressed checkpoint is %d bytes, want <1/4 of the raw %d", run.EncodedSize(), raw)
	}
}

// TestCheckpointRejectsEveryTruncation mirrors the tcpnet
// TestPartDecodeRejectsTruncation: a checkpoint cut at ANY byte boundary
// must decode to an error, never to garbage mate vectors.
func TestCheckpointRejectsEveryTruncation(t *testing.T) {
	ck := &Checkpoint{
		Phase: 2, Cardinality: 3, ConfigHash: 0xabcd, Engine: EngineBFSSingleSource,
		N1: 5, N2: 5,
		MateR: []int64{5, 9, semiring.None, 12, 40},
		MateC: []int64{41, semiring.None, 0, 2, 1},
	}
	data := ck.Encode()
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeCheckpoint(data[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded cleanly", cut, len(data))
		}
	}
}

func TestCheckpointHashSensitivity(t *testing.T) {
	base := Config{Procs: 4, Init: InitGreedy}
	h := base.CheckpointHash(50, 50)
	if h != base.CheckpointHash(50, 50) {
		t.Fatal("hash not deterministic")
	}
	variants := []Config{
		{Procs: 9, Init: InitGreedy},
		{Procs: 4, Init: InitKarpSipser},
		{Procs: 4, Init: InitGreedy, Augment: AugmentPathParallel},
		{Procs: 4, Init: InitGreedy, DisablePrune: true},
		{Procs: 4, Init: InitGreedy, Engine: EngineBFSSingleSource},
		{Procs: 4, Init: InitGreedy, Permute: true},
		{Procs: 4, Init: InitGreedy, Seed: 7},
		{Procs: 4, Init: InitGreedy, AddOp: semiring.RandRoot},
		{Procs: 4, Init: InitGreedy, Direction: DirectionAuto},
	}
	for i, v := range variants {
		if v.CheckpointHash(50, 50) == h {
			t.Fatalf("variant %d hashes like the base config: %+v", i, v)
		}
	}
	if base.CheckpointHash(51, 50) == h || base.CheckpointHash(50, 51) == h {
		t.Fatal("hash insensitive to problem shape")
	}
	// Fields that do NOT change the solve trajectory must not change the
	// hash, or a restart with different threading would be rejected.
	same := Config{Procs: 4, Init: InitGreedy, Threads: 8, Compress: true,
		WatchdogTimeout: time.Second, CheckpointEvery: 2, FlightDir: "d"}
	if same.CheckpointHash(50, 50) != h {
		t.Fatal("hash sensitive to execution-only knobs (Threads/Compress/WatchdogTimeout/CheckpointEvery/FlightDir)")
	}
}

func TestSolveEmitsValidCheckpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randomBipartite(rng, 50, 50, 120) // sparse: greedy leaves augmenting work
	var cks []*Checkpoint
	cfg := Config{
		Procs:           4,
		Init:            InitGreedy,
		CheckpointEvery: 1,
		OnCheckpoint:    func(ck *Checkpoint) { cks = append(cks, ck) },
	}
	res := mustSolve(t, a, cfg)
	if res.Stats.Phases == 0 {
		t.Skip("no augmentation phases; checkpoint stream trivial")
	}
	if len(cks) != res.Stats.Phases+1 {
		t.Fatalf("%d checkpoints for %d phases (want phases+1 incl. phase 0)", len(cks), res.Stats.Phases)
	}
	prev := -1
	for _, ck := range cks {
		if ck.Phase <= prev {
			t.Fatalf("checkpoint phases not increasing: %d after %d", ck.Phase, prev)
		}
		prev = ck.Phase
		if ck.N1 != 50 || ck.N2 != 50 {
			t.Fatalf("checkpoint shape %dx%d", ck.N1, ck.N2)
		}
		if got := countMatched(ck.MateC); got != ck.Cardinality {
			t.Fatalf("phase %d: recorded cardinality %d, mate vector holds %d", ck.Phase, ck.Cardinality, got)
		}
		// The tentpole invariant: every phase boundary is a valid matching.
		m := &matching.Matching{MateR: ck.MateR, MateC: ck.MateC}
		if err := verify.Valid(a, m); err != nil {
			t.Fatalf("phase %d checkpoint is not a valid matching: %v", ck.Phase, err)
		}
	}
	final := cks[len(cks)-1]
	if final.Cardinality != res.Stats.Cardinality {
		t.Fatalf("final checkpoint cardinality %d, solve reached %d", final.Cardinality, res.Stats.Cardinality)
	}
	if res.Stats.Checkpoints != len(cks) {
		t.Fatalf("Stats.Checkpoints = %d, observed %d", res.Stats.Checkpoints, len(cks))
	}
	var wantBytes int64
	for _, ck := range cks {
		wantBytes += int64(ck.EncodedSize())
	}
	if res.Stats.CheckpointBytes != wantBytes {
		t.Fatalf("Stats.CheckpointBytes = %d, encodings total %d", res.Stats.CheckpointBytes, wantBytes)
	}
	for _, ck := range cks {
		if ck.Engine != EngineBFS {
			t.Fatalf("checkpoint carries engine %q, want %q", ck.Engine, EngineBFS)
		}
	}
}

func TestResumeFromCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := randomBipartite(rng, 60, 60, 140)
	var cks []*Checkpoint
	cfg := Config{
		Procs:           4,
		Init:            InitGreedy,
		CheckpointEvery: 1,
		OnCheckpoint:    func(ck *Checkpoint) { cks = append(cks, ck) },
	}
	clean := mustSolve(t, a, cfg)
	if len(cks) < 2 {
		t.Skip("not enough phases to test a mid-run resume")
	}

	// Resume from the first mid-run snapshot: the restarted solve must land
	// on the exact same mate vectors as the uninterrupted one (MCM-DIST is
	// deterministic, so the tail of the trajectory replays bit-for-bit).
	resume := cfg
	resume.OnCheckpoint = nil
	resume.Resume = cks[1]
	res, err := Solve(a, resume)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.InitCardinality != cks[1].Cardinality {
		t.Fatalf("resumed InitCardinality %d, checkpoint had %d", res.Stats.InitCardinality, cks[1].Cardinality)
	}
	if res.Stats.Cardinality != clean.Stats.Cardinality {
		t.Fatalf("resumed cardinality %d, clean %d", res.Stats.Cardinality, clean.Stats.Cardinality)
	}
	for i := range clean.Matching.MateR {
		if res.Matching.MateR[i] != clean.Matching.MateR[i] {
			t.Fatalf("MateR[%d] differs after resume: %d vs %d", i, res.Matching.MateR[i], clean.Matching.MateR[i])
		}
	}
	for j := range clean.Matching.MateC {
		if res.Matching.MateC[j] != clean.Matching.MateC[j] {
			t.Fatalf("MateC[%d] differs after resume: %d vs %d", j, res.Matching.MateC[j], clean.Matching.MateC[j])
		}
	}
}

func TestResumeRejectsMismatchedCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := randomBipartite(rng, 40, 40, 100)
	var last *Checkpoint
	cfg := Config{
		Procs:           4,
		Init:            InitGreedy,
		CheckpointEvery: 1,
		OnCheckpoint:    func(ck *Checkpoint) { last = ck },
	}
	mustSolve(t, a, cfg)
	if last == nil {
		t.Fatal("no checkpoint produced")
	}

	// Same snapshot, different algorithm configuration: hash must not match.
	bad := cfg
	bad.OnCheckpoint = nil
	bad.Init = InitKarpSipser
	bad.Resume = last
	if _, err := Solve(a, bad); err == nil {
		t.Fatal("resume under a different config accepted")
	}

	// Corrupted hash must be rejected even under the original config.
	forged := *last
	forged.ConfigHash ^= 1
	good := cfg
	good.OnCheckpoint = nil
	good.Resume = &forged
	if _, err := Solve(a, good); err == nil {
		t.Fatal("resume with forged config hash accepted")
	}
}

// TestCheckpointAssembledOnRankZero drives maybeCheckpoint on p = 4 through
// five phase boundaries with CheckpointEvery 2. OnCheckpoint must fire once
// per checkpoint (phases 0, 2 and 4), each delivered snapshot must equal,
// field for field, the one every rank builds when it gathers both full
// vectors itself, and the merged CheckpointBytes must total the encodings.
func TestCheckpointAssembledOnRankZero(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := randomBipartite(rng, 50, 40, 130)
	maximum := matching.HopcroftKarp(a, nil)
	var delivered []*Checkpoint
	cfg := Config{
		Procs:           4,
		Engine:          EngineBFS,
		CheckpointEvery: 2,
		OnCheckpoint:    func(ck *Checkpoint) { delivered = append(delivered, ck) },
	}
	var built [4][]*Checkpoint
	blocks := spmat.DistributeRanks(a, 2, 2, nil)
	res, err := SolveBlocks(nil, 2, 2, a.NRows, a.NCols, blocks, cfg, nil,
		func(s *Solver) (mater, matec *dvec.Dense, err error) {
			rank := s.G.World.Rank()
			for phase := 0; phase <= 4; phase++ {
				// A growing valid matching: the maximum one on columns j
				// with j%5 <= phase.
				m := matching.NewMatching(a.NRows, a.NCols)
				for j, i := range maximum.MateC {
					if i != semiring.None && j%5 <= phase {
						m.Match(int(i), j)
					}
				}
				mater = dvec.NewDenseFrom(s.RowL, m.MateR)
				matec = dvec.NewDenseFrom(s.ColL, m.MateC)
				s.maybeCheckpoint(phase, mater, matec)
				if phase%cfg.CheckpointEvery != 0 {
					continue
				}
				built[rank] = append(built[rank], &Checkpoint{
					Phase:       phase,
					Cardinality: s.N2 - s.countUnmatched(matec),
					ConfigHash:  s.Cfg.CheckpointHash(s.N1, s.N2),
					Engine:      s.Cfg.Engine,
					N1:          s.N1,
					N2:          s.N2,
					MateR:       mater.Gather(true),
					MateC:       matec.Gather(true),
				})
			}
			return mater, matec, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(delivered) != 3 || res.Stats.Checkpoints != 3 {
		t.Fatalf("OnCheckpoint fired %d times, Stats.Checkpoints = %d; want 3 and 3",
			len(delivered), res.Stats.Checkpoints)
	}
	var wantBytes int64
	for k, ck := range delivered {
		for rank := range built {
			if !reflect.DeepEqual(ck, built[rank][k]) {
				t.Fatalf("checkpoint %d: delivered %+v, rank %d builds %+v", k, ck, rank, built[rank][k])
			}
		}
		wantBytes += int64(ck.EncodedSize())
	}
	if res.Stats.CheckpointBytes != wantBytes {
		t.Fatalf("Stats.CheckpointBytes = %d, encodings total %d", res.Stats.CheckpointBytes, wantBytes)
	}
}
