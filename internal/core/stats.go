package core

import (
	"time"

	"mcmdist/internal/mpi"
	"mcmdist/internal/parallel"
	"mcmdist/internal/rt"
)

// Op labels the primitive categories of the runtime breakdown (Fig. 5).
type Op string

// Breakdown categories. "Other" absorbs frontier bookkeeping and reductions.
const (
	OpSpMV    Op = "spmv"
	OpSelect  Op = "select"
	OpInvert  Op = "invert"
	OpPrune   Op = "prune"
	OpAugment Op = "augment"
	OpInit    Op = "init"
	OpOther   Op = "other"
)

// Ops lists the categories in display order.
var Ops = []Op{OpInit, OpSpMV, OpSelect, OpInvert, OpPrune, OpAugment, OpOther}

// Stats aggregates one rank's (and after merging, the whole run's)
// measurements.
type Stats struct {
	// Engine is the name of the engine that ran the solve (SPMD-replicated;
	// set by RunEngine).
	Engine     string
	Phases     int // MS-BFS phases executed (repeat-until rounds)
	Iterations int // level-synchronous frontier iterations, all phases
	// PushIterations and PullIterations split the BFS iterations by SpMV
	// direction when direction optimization is enabled.
	PushIterations, PullIterations int
	// Augmentations counts how many times each variant ran.
	LevelParallelAugments int
	PathParallelAugments  int
	AugmentedPaths        int // total augmenting paths applied
	InitCardinality       int // matching size after the initializer
	Cardinality           int // final matching size
	// Checkpoint counters (Config.CheckpointEvery): checkpoints taken,
	// bytes their encodings total, and wall time spent gathering and
	// packaging them — the recovery overhead a bench run reports. Every
	// rank counts Checkpoints and CheckpointWall; CheckpointBytes is
	// counted where the snapshot is built, on rank 0, and zero elsewhere
	// (MergeMax carries rank 0's total).
	Checkpoints     int
	CheckpointBytes int64
	CheckpointWall  time.Duration

	// Threading is this rank's worker-pool telemetry for the solve: team
	// size, parallel regions fanned out vs. run inline, busy time, and
	// (via Utilization) how much of the team's capacity was used. After
	// MergeMax it holds the per-field maximum across ranks.
	Threading parallel.Stats

	// Wall is wall-clock time per category for this rank (in-process
	// simulation time, useful for relative breakdown).
	Wall map[Op]time.Duration
	// Meter is the communication/work meter delta per category for this
	// rank, the input to the alpha-beta cost model.
	Meter map[Op]mpi.Meter
	// Comm is the split-phase communication-time ledger per category:
	// total request-in-flight time vs the part this rank actually spent
	// blocked (exposed). Total minus exposed is the latency hidden behind
	// local computation by the overlapped schedules.
	Comm map[Op]mpi.CommTimes
}

// newStats returns a zeroed Stats with allocated maps.
func newStats() *Stats {
	return &Stats{
		Wall:  make(map[Op]time.Duration),
		Meter: make(map[Op]mpi.Meter),
		Comm:  make(map[Op]mpi.CommTimes),
	}
}

// MergeMax folds another rank's stats into s, taking per-category maxima for
// wall time and meters (critical-path approximation). The SPMD-replicated
// counters (cardinality, phases, iterations, ...) are s's own: every rank
// computes the same values, and MergeMax does not compare them.
func (s *Stats) MergeMax(o *Stats) {
	if s.Engine == "" {
		s.Engine = o.Engine
	}
	s.Threading = s.Threading.Max(o.Threading)
	if o.Checkpoints > s.Checkpoints {
		s.Checkpoints = o.Checkpoints
	}
	if o.CheckpointBytes > s.CheckpointBytes {
		s.CheckpointBytes = o.CheckpointBytes
	}
	if o.CheckpointWall > s.CheckpointWall {
		s.CheckpointWall = o.CheckpointWall
	}
	for op, d := range o.Wall {
		if d > s.Wall[op] {
			s.Wall[op] = d
		}
	}
	for op, m := range o.Meter {
		s.Meter[op] = s.Meter[op].Max(m)
	}
	for op, ct := range o.Comm {
		s.Comm[op] = s.Comm[op].Max(ct)
	}
}

// tracker measures one rank's per-category wall time and meter deltas with
// rt.Ctx.Track and adds each delta into this solve's Stats.
type tracker struct {
	ctx   *rt.Ctx
	stats *Stats
}

// track runs fn, attributing its wall time, meter delta and comm-time
// delta to op.
func (t *tracker) track(op Op, fn func()) {
	delta := t.ctx.Track(string(op), fn)
	t.stats.Wall[op] += delta.Wall
	t.stats.Meter[op] = t.stats.Meter[op].Add(delta.Meter)
	t.stats.Comm[op] = t.stats.Comm[op].Add(delta.Comm)
}
