// Package core implements the paper's primary contribution: MCM-DIST
// (Algorithm 2), the distributed-memory maximum cardinality matching
// algorithm built from the matrix-algebraic primitives of Table I, together
// with its distributed maximal-matching initializers (Section VI-A) and the
// two augmentation strategies — level-parallel (Algorithm 3) and
// path-parallel via one-sided RMA (Algorithm 4) — with the automatic
// k < 2p² switch of Section IV-B.
package core

import (
	"encoding"
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"mcmdist/internal/enum"
	"mcmdist/internal/mpi"
	"mcmdist/internal/obs"
	"mcmdist/internal/semiring"
)

// Init selects the maximal-matching initializer run before the MCM phases
// (Section VI-A compares these; the paper defaults to dynamic mindegree).
type Init int

const (
	// InitNone starts from the empty matching.
	InitNone Init = iota
	// InitGreedy is the distributed greedy maximal matching.
	InitGreedy
	// InitKarpSipser is the distributed Karp–Sipser maximal matching with
	// the degree-1 rule; expensive on distributed memory (Fig. 3).
	InitKarpSipser
	// InitDynMinDegree is the distributed dynamic-mindegree maximal
	// matching, the paper's default initializer.
	InitDynMinDegree
)

var initNames = []string{InitNone: "none", InitGreedy: "greedy", InitKarpSipser: "karpsipser", InitDynMinDegree: "mindegree"}

// String names the initializer with its flag spelling.
func (in Init) String() string { return enum.Name(initNames, "Init", in) }

// MarshalText spells the initializer for flags and JSON.
func (in Init) MarshalText() ([]byte, error) { return enum.Marshal(initNames, "init", in) }

// UnmarshalText parses a flag or JSON spelling.
func (in *Init) UnmarshalText(text []byte) error { return enum.Unmarshal(initNames, "init", text, in) }

// AugmentMode selects how discovered augmenting paths are applied.
type AugmentMode int

const (
	// AugmentAuto switches between the two variants with the paper's
	// criterion: path-parallel when k < 2p², level-parallel otherwise.
	AugmentAuto AugmentMode = iota
	// AugmentLevelParallel always uses Algorithm 3 (bulk-synchronous
	// INVERT/SET chains, level by level).
	AugmentLevelParallel
	// AugmentPathParallel always uses Algorithm 4 (asynchronous RMA walks,
	// one path at a time per owner).
	AugmentPathParallel
)

var augmentNames = []string{AugmentAuto: "auto", AugmentLevelParallel: "level", AugmentPathParallel: "path"}

// String names the mode with its flag spelling.
func (am AugmentMode) String() string { return enum.Name(augmentNames, "AugmentMode", am) }

// MarshalText spells the mode for flags and JSON.
func (am AugmentMode) MarshalText() ([]byte, error) { return enum.Marshal(augmentNames, "augment", am) }

// UnmarshalText parses a flag or JSON spelling.
func (am *AugmentMode) UnmarshalText(text []byte) error {
	return enum.Unmarshal(augmentNames, "augment", text, am)
}

// Direction pins or frees the per-iteration SpMV kernel choice (top-down
// spmv.Mul vs bottom-up spmv.MulPull). See docs/KERNELS.md.
type Direction int

const (
	// DirectionPush pins every iteration to the top-down kernel.
	DirectionPush Direction = iota
	// DirectionPull pins every iteration to the bottom-up kernel.
	DirectionPull
	// DirectionAuto runs the per-iteration push/pull heuristic.
	DirectionAuto
)

var directionNames = []string{DirectionPush: "push", DirectionPull: "pull", DirectionAuto: "auto"}

// String names the direction with its flag spelling.
func (d Direction) String() string { return enum.Name(directionNames, "Direction", d) }

// MarshalText spells the direction for flags and JSON.
func (d Direction) MarshalText() ([]byte, error) { return enum.Marshal(directionNames, "direction", d) }

// UnmarshalText parses a flag or JSON spelling.
func (d *Direction) UnmarshalText(text []byte) error {
	return enum.Unmarshal(directionNames, "direction", text, d)
}

// Config controls a distributed matching run. It is the one solver-option
// schema: BindFlags registers its command-line flags, encoding/json over its
// tags is its wire and record format, the multi-process job spec and the
// bench drivers carry it, and the public Options convert to it.
type Config struct {
	// Engine names the matching engine to run: one of the two engines
	// ("bfs", "bfs-ss" — see EngineNames), or "" or "auto" for the
	// default, bfs.
	Engine string `json:"engine,omitempty"`
	// Procs is the number of simulated MPI ranks. Unless GridRows/GridCols
	// are set it must be a perfect square (the configuration the paper
	// evaluates; its CombBLAS build "does not support rectangular grids" —
	// this implementation does, see GridRows). 0 means 1.
	Procs int `json:"procs,omitempty"`
	// GridRows and GridCols select an explicit (possibly rectangular)
	// process grid; both must be set together and their product becomes
	// the rank count. Zero means the square grid derived from Procs.
	GridRows int `json:"grid_rows,omitempty"`
	GridCols int `json:"grid_cols,omitempty"`
	// Threads is the number of compute threads modeled per rank (the
	// paper's OpenMP threads, 12 per socket on Edison). It divides the
	// local-work term of the cost model. 0 means 1.
	Threads int `json:"threads,omitempty"`
	// Init selects the maximal-matching initializer.
	Init Init `json:"init,omitempty"`
	// AddOp selects the SpMV semiring addition (minParent, randRoot,
	// randParent).
	AddOp semiring.AddOp `json:"semiring,omitempty"`
	// Augment selects the augmentation strategy.
	Augment AugmentMode `json:"augment,omitempty"`
	// DisablePrune turns off Step 6 of Algorithm 2 (the Fig. 8 ablation).
	DisablePrune bool `json:"no_prune,omitempty"`
	// Direction pins the SpMV kernel choice: DirectionPush (the zero value)
	// or DirectionPull hold one kernel for every iteration (deterministic for
	// tests and ablations), and DirectionAuto runs the per-iteration
	// bottom-up ("pull") heuristic for large frontiers — the direction
	// optimization the paper lists as future work.
	Direction Direction `json:"direction,omitempty"`
	// Compress enables the delta-varint wire codec (internal/wire) on the
	// communication layer: id-stream payloads are delta+varint encoded on
	// the tcp backend and the encoded volume is metered as Meter.WordsEnc on
	// every backend. Results are bit-identical with it on or off.
	Compress bool `json:"compress,omitempty"`
	// Permute applies a random symmetric permutation before distributing,
	// the load-balancing step of Section IV-A.
	Permute bool `json:"permute,omitempty"`
	// Seed drives the permutation and any randomized initializer.
	Seed int64 `json:"seed,omitempty"`
	// Obs attaches the observability plane (internal/obs): span tracing
	// onto per-rank ring buffers and the per-iteration time-series (the
	// solve's one per-iteration record), per the collector's options. The
	// collector must be built for at least the run's rank count. Nil (the
	// default) records nothing and keeps the hot path at its untraced cost.
	Obs *obs.Collector `json:"-"`

	// Fault attaches a deterministic fault injector to the run's world
	// (crash at the Nth collective, straggler latency, RMA failure, and on
	// the tcp backend a dropped, cut or slow link); nil injects nothing.
	// It is the one way a plan reaches a world. See mpi.FaultPlan.
	Fault *mpi.FaultPlan `json:"-"`
	// WatchdogTimeout arms the runtime's progress watchdog: a run making no
	// communication progress for this long is aborted with an
	// mpi.DeadlockError naming the stuck collective and lagging ranks. It
	// must comfortably exceed the longest communication-free compute stretch
	// and any injected straggler delay. Zero disables the watchdog.
	WatchdogTimeout time.Duration `json:"watchdog,omitempty"`
	// CheckpointEvery takes a phase-boundary checkpoint after every Nth
	// augmentation phase (and after the initializer). Between phases the
	// mate vectors always encode a valid matching, which is what makes the
	// phase boundary a restart point. Zero disables checkpointing.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// OnCheckpoint receives each checkpoint on rank 0. Required for
	// CheckpointEvery to take effect; the recovery loop installs its own
	// handler and chains to any caller-supplied one.
	OnCheckpoint func(*Checkpoint) `json:"-"`
	// Resume restarts the solve from a prior checkpoint instead of running
	// the maximal-matching initializer: the checkpointed mate vectors are
	// scattered back over the grid and the MCM phases continue from there.
	Resume *Checkpoint `json:"-"`
	// FlightDir, when non-empty, arms the crash flight recorder: every
	// failed attempt of a recoverable solve, and every failed worker solve
	// of a multi-process job, persists its ranks' span-ring tails,
	// generation and cause to
	// FlightDir/flight-g<gen>-r<rank>.dump (see WriteFlightDump). The path
	// is interpreted in each process's own filesystem namespace.
	FlightDir string `json:"flight_dir,omitempty"`
}

// BindFlags registers the solver options on fs as the command-line flags
// -procs -threads -engine -init -semiring -augment -direction -compress
// -no-prune -no-permute -seed, parsing into cfg. cfg's current
// values are the flag defaults.
func BindFlags(fs *flag.FlagSet, cfg *Config) {
	fs.IntVar(&cfg.Procs, "procs", cfg.Procs, "simulated ranks (perfect square)")
	fs.IntVar(&cfg.Threads, "threads", cfg.Threads, "worker threads per rank (also divides the modeled work term)")
	fs.Var(engineFlag{&cfg.Engine}, "engine", "matching engine: "+strings.Join(EngineNames(), ", ")+" (bfs is the default; auto is an alias of it)")
	fs.TextVar(&cfg.Init, "init", cfg.Init, "initializer: "+strings.Join(initNames, ", "))
	fs.TextVar(&cfg.AddOp, "semiring", cfg.AddOp, "SpMV semiring: minparent, randroot, randparent")
	fs.TextVar(&cfg.Augment, "augment", cfg.Augment, "augmentation: "+strings.Join(augmentNames, ", "))
	fs.TextVar(&cfg.Direction, "direction", cfg.Direction, "SpMV kernel policy: "+strings.Join(directionNames, ", ")+" (per-iteration heuristic)")
	fs.BoolVar(&cfg.Compress, "compress", cfg.Compress, "enable the delta-varint wire codec (tcp payload compression; all backends meter the encoded volume; results are bit-identical)")
	fs.BoolVar(&cfg.DisablePrune, "no-prune", cfg.DisablePrune, "disable tree pruning (Fig. 8 ablation)")
	fs.Var(notFlag{&cfg.Permute}, "no-permute", "skip the load-balancing random permutation")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "seed of the permutation, the randomized initializers and generated graphs")
}

// engineFlag is the -engine flag: an engine spelling checked at parse time.
type engineFlag struct{ name *string }

func (f engineFlag) String() string {
	if f.name == nil {
		return ""
	}
	return *f.name
}

func (f engineFlag) Set(s string) error {
	if err := checkEngine(s); err != nil {
		return err
	}
	*f.name = s
	return nil
}

// notFlag is a boolean flag that stores its negation (-no-permute clears
// Permute).
type notFlag struct{ b *bool }

func (f notFlag) String() string { return strconv.FormatBool(f.b != nil && !*f.b) }

func (f notFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	if err != nil {
		return err
	}
	*f.b = !v
	return nil
}

func (f notFlag) IsBoolFlag() bool { return true }

// Validate rejects option values the schema has no name for — an unknown
// engine spelling or an out-of-range enum — and a rank count no process
// grid fits (see gridShape).
func (c Config) Validate() error {
	if err := checkEngine(c.Engine); err != nil {
		return err
	}
	for _, v := range []encoding.TextMarshaler{c.Init, c.AddOp, c.Augment, c.Direction} {
		if _, err := v.MarshalText(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	_, _, err := c.withDefaults().gridShape()
	return err
}

// withDefaults normalizes zero values.
func (c Config) withDefaults() Config {
	if c.Procs <= 0 {
		c.Procs = 1
	}
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Engine == "" || c.Engine == EngineAuto {
		c.Engine = EngineBFS
	}
	return c
}

// gridShape returns the process grid the configuration runs on: GridRows x
// GridCols when set, else the square grid of Procs ranks. It rejects a
// half-set explicit grid and a Procs that is not a perfect square.
func (c Config) gridShape() (pr, pc int, err error) {
	if c.GridRows != 0 || c.GridCols != 0 {
		if c.GridRows <= 0 || c.GridCols <= 0 {
			return 0, 0, fmt.Errorf("core: GridRows and GridCols must both be positive (got %d x %d)",
				c.GridRows, c.GridCols)
		}
		return c.GridRows, c.GridCols, nil
	}
	s := 1
	for s*s < c.Procs {
		s++
	}
	if s*s != c.Procs {
		return 0, 0, fmt.Errorf("core: Procs = %d is not a perfect square (set GridRows/GridCols for a rectangular grid)", c.Procs)
	}
	return s, s, nil
}
