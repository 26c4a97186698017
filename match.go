package mcmdist

import (
	"fmt"
	"time"

	"mcmdist/internal/core"
	"mcmdist/internal/costmodel"
	"mcmdist/internal/matching"
	"mcmdist/internal/mpi"
	"mcmdist/internal/semiring"
	"mcmdist/internal/verify"
)

// Unmatched marks an unmatched vertex in the mate vectors (-1).
const Unmatched int64 = -1

// Matching is a bipartite matching as two mate vectors: MateR[i] is the
// column matched to row i and MateC[j] the row matched to column j, with
// Unmatched (-1) elsewhere. It is not an alias of the solver's matching
// type, whose methods take the internal sparse matrix.
type Matching struct {
	// MateR[i] is the column matched to row i; MateC[j] the row matched to
	// column j; Unmatched (-1) elsewhere.
	MateR, MateC []int64
}

// Cardinality returns |M|, the number of matched edges.
func (m *Matching) Cardinality() int {
	n := 0
	for _, v := range m.MateC {
		if v != Unmatched {
			n++
		}
	}
	return n
}

func (m *Matching) internal() *matching.Matching {
	return &matching.Matching{MateR: m.MateR, MateC: m.MateC}
}

func fromInternal(m *matching.Matching) *Matching {
	return &Matching{MateR: m.MateR, MateC: m.MateC}
}

// Verify checks structural validity: mutually consistent mate vectors whose
// matched pairs are edges of g.
func (g *Graph) Verify(m *Matching) error {
	return verify.Valid(g.a, m.internal())
}

// valid reports whether m is a non-nil, structurally valid matching of g —
// the precondition of every method that indexes a caller's mate vectors.
func (g *Graph) valid(m *Matching) bool {
	return m != nil && g.Verify(m) == nil
}

// VerifyMaximum certifies that m is a maximum cardinality matching of g via
// the König–Egerváry vertex-cover certificate (no second matching algorithm
// involved).
func (g *Graph) VerifyMaximum(m *Matching) error {
	return verify.Maximum(g.a, m.internal())
}

// Initializer selects the distributed maximal-matching initializer. Its
// String, MarshalText and UnmarshalText use the command-line spellings
// ("none", "greedy", "karpsipser", "mindegree").
type Initializer = core.Init

// Initializer choices (paper Section VI-A; DynamicMindegree is the default
// the paper selects).
const (
	NoInit               = core.InitNone
	GreedyInit           = core.InitGreedy
	KarpSipserInit       = core.InitKarpSipser
	DynamicMindegreeInit = core.InitDynMinDegree
)

// Semiring selects the SpMV semiring addition of Section III-B, spelled
// "minparent", "randroot" and "randparent".
type Semiring = semiring.AddOp

// Semiring choices.
const (
	MinParent  = semiring.MinParent
	RandRoot   = semiring.RandRoot
	RandParent = semiring.RandParent
)

// Augmentation selects the augmentation strategy of Section IV-B, spelled
// "auto", "level" and "path".
type Augmentation = core.AugmentMode

// Augmentation choices.
const (
	// AutoAugment switches at the paper's k < 2p² criterion.
	AutoAugment = core.AugmentAuto
	// LevelParallel is the bulk-synchronous Algorithm 3.
	LevelParallel = core.AugmentLevelParallel
	// PathParallel is the one-sided RMA Algorithm 4.
	PathParallel = core.AugmentPathParallel
)

// Options configures MaximumMatching.
type Options struct {
	// Procs is the number of simulated distributed-memory ranks; unless
	// GridRows/GridCols are set it must be a perfect square (the only
	// configuration the paper's CombBLAS build supports). 0 means 1.
	Procs int
	// GridRows and GridCols select an explicit, possibly rectangular
	// process grid (an extension over the paper); both must be set
	// together, and their product becomes the rank count.
	GridRows, GridCols int
	// Threads models intra-rank compute threads (the paper uses 12 per
	// socket); it scales the local-work term of the cost model. 0 means 1.
	Threads int
	// Engine names the matching engine: "bfs" (the paper's MCM-DIST, also
	// the default "" and "auto") or "bfs-ss" (single-source ablation).
	// "auto" is bfs, the faster engine overall in the engine sweep
	// (docs/ENGINES.md). Stats.Engine reports the engine that actually ran.
	Engine string
	// Init selects the maximal-matching initializer. The zero value is
	// NoInit; the paper's recommended setting is DynamicMindegreeInit.
	Init Initializer
	// Semiring selects the SpMV conflict resolution; MinParent is the
	// deterministic default, RandRoot balances alternating-tree sizes.
	Semiring Semiring
	// Augment selects how augmenting paths are applied.
	Augment Augmentation
	// DisablePrune turns off the pruning of satisfied alternating trees
	// (Algorithm 2, Step 6) — the Fig. 8 ablation.
	DisablePrune bool
	// Direction pins or frees the per-iteration SpMV kernel choice: "push"
	// (also the default ""), "pull", or "auto" for the bottom-up ("pull") BFS
	// direction on large frontiers, the optimization the paper lists as
	// future work. See docs/KERNELS.md.
	Direction string
	// Compress enables the delta-varint wire codec on the communication
	// layer (internal/wire): multi-process solves encode id-stream
	// payloads on the wire and every backend meters the encoded volume.
	// Results are bit-identical with it on or off.
	Compress bool
	// Permute randomly permutes rows and columns before distribution for
	// load balance (Section IV-A).
	Permute bool
	// Seed drives the permutation.
	Seed int64
	// Observe, when non-nil, attaches the observability plane — span
	// tracing and the per-iteration time-series — per its fields; the
	// recorded data comes back on Stats.Obs. Nil records nothing and keeps
	// the solver at its untraced cost.
	Observe *Observe
}

// toConfig copies the options into the solver schema, rejecting values it
// has no name for.
func (o Options) toConfig() (core.Config, error) {
	cfg := core.Config{
		Engine:       o.Engine,
		Procs:        o.Procs,
		GridRows:     o.GridRows,
		GridCols:     o.GridCols,
		Threads:      o.Threads,
		Init:         o.Init,
		AddOp:        o.Semiring,
		Augment:      o.Augment,
		DisablePrune: o.DisablePrune,
		Compress:     o.Compress,
		Permute:      o.Permute,
		Seed:         o.Seed,
	}
	if o.Direction != "" {
		if err := cfg.Direction.UnmarshalText([]byte(o.Direction)); err != nil {
			return cfg, fmt.Errorf("mcmdist: %w", err)
		}
	}
	return cfg, cfg.Validate()
}

// CommStats counts one rank's communication and local work: messages
// (latency units), 8-byte words (bandwidth units), local operations, and
// the wire-compressed word volume when Options.Compress is on.
type CommStats = mpi.Meter

// CommTime splits one category's communication wall time in two: Total is
// the time its collectives' requests were in flight, Exposed the part the
// rank actually spent blocked waiting on them. The difference is latency the
// split-phase schedules hid behind local computation.
type CommTime = mpi.CommTimes

// Stats reports a distributed run. It is not an alias of the solver's own
// stats: callers (the repo benchmark among them) index WallByOp, CommByOp
// and CommTimeByOp with plain string keys.
type Stats struct {
	// Engine is the name of the engine that ran the solve — "bfs" when
	// Options.Engine was "auto" or empty.
	Engine string
	// Cardinality is |M| of the returned matching; InitCardinality is the
	// size after the maximal-matching initializer.
	Cardinality, InitCardinality int
	// Phases counts augmenting MS-BFS phases; Iterations the
	// level-synchronous frontier steps across all phases, split by SpMV
	// direction when direction optimization is on.
	Phases, Iterations int
	// PushIterations and PullIterations split Iterations by SpMV direction.
	PushIterations, PullIterations int
	// AugmentedPaths is the total number of augmenting paths applied;
	// the two counters split them by augmentation variant used.
	AugmentedPaths, LevelParallelAugments, PathParallelAugments int
	// Procs and Threads echo the effective configuration.
	Procs, Threads int
	// Checkpoints counts phase-boundary snapshots taken during the run;
	// zero unless launched through the recovery plane (SolveRecoverable).
	Checkpoints int
	// CheckpointBytes is the total encoded volume of those snapshots. It is
	// counted where the snapshots are built, on rank 0, so in-process and
	// recovery-loop results agree; in a world spanning several processes,
	// a process that does not host rank 0 reports 0.
	CheckpointBytes int64
	// CheckpointWall is the wall time spent taking those snapshots (rank
	// maximum) — the recovery plane's overhead on the critical path.
	CheckpointWall time.Duration
	// WallByOp is the per-primitive wall-clock breakdown (maximum over
	// the ranks this process hosts), keyed by "spmv", "invert", "prune",
	// "select", "augment", "init", "other" — the Fig. 5 decomposition.
	WallByOp map[string]time.Duration
	// CommByOp is the per-primitive communication breakdown (maximum over
	// the ranks this process hosts).
	CommByOp map[string]CommStats
	// CommTimeByOp is the per-primitive communication-time ledger (maximum
	// over the ranks this process hosts): total request-in-flight time vs
	// the exposed part spent blocked. See CommTime.
	CommTimeByOp map[string]CommTime
	// PerRank holds the cumulative totals of the ranks this process hosts:
	// every rank in process, only the local ranks on a transport spanning
	// several processes (remote ranks report in their own process).
	PerRank []CommStats
	// Obs carries the run's observability data (span trace and
	// time-series) when Options.Observe was set; nil otherwise.
	Obs *ObsReport
}

// MachineModel holds alpha-beta cost-model constants (seconds per local op,
// per message, per 8-byte word).
type MachineModel = costmodel.Machine

// EdisonXC30 approximates the paper's evaluation platform: a Cray XC30 with
// the Aries dragonfly interconnect.
var EdisonXC30 = costmodel.Edison

// ModeledSeconds projects the run onto the machine model: the maximum over
// ranks of F*t_op/threads + alpha*S + beta*W (Section IV-B).
func (st *Stats) ModeledSeconds(mm MachineModel) float64 {
	var worst float64
	for _, cs := range st.PerRank {
		worst = max(worst, mm.Time(cs, st.Threads))
	}
	return worst
}

// MaximumMatching computes a maximum cardinality matching of g with the
// distributed MCM-DIST algorithm on opts.Procs simulated ranks.
func MaximumMatching(g *Graph, opts Options) (m *Matching, st *Stats, err error) {
	return maximumMatchingOn(nil, g, opts)
}

// maximumMatchingOn is the body of MaximumMatching and MaximumMatchingOn:
// a nil tr is the in-process world of opts.Procs ranks.
func maximumMatchingOn(tr mpi.Transport, g *Graph, opts Options) (m *Matching, st *Stats, err error) {
	defer guard(&err)
	cfg, err := opts.toConfig()
	if err != nil {
		return nil, nil, err
	}
	procs := opts.Procs
	if opts.GridRows > 0 && opts.GridCols > 0 {
		procs = opts.GridRows * opts.GridCols
	}
	if procs == 0 {
		procs = 1
	}
	if tr != nil && procs != tr.WorldSize() {
		return nil, nil, fmt.Errorf("mcmdist: Options.Procs %d != transport world size %d", procs, tr.WorldSize())
	}
	cfg.Obs = opts.Observe.collector(procs)
	res, err := core.SolveOn(tr, g.a, cfg)
	if err != nil {
		return nil, nil, err
	}
	return fromInternal(res.Matching), statsFromCore(res, cfg.Obs), nil
}

// SerialAlgorithm selects a serial MCM algorithm.
type SerialAlgorithm int

// HopcroftKarp is the O(m*sqrt(n)) serial MCM algorithm of Section II-A,
// the correctness oracle and the only SerialAlgorithm.
const HopcroftKarp SerialAlgorithm = 0

// MaximumMatchingSerial computes an MCM with the selected serial algorithm,
// optionally warm-started from init (pass nil to start empty).
func MaximumMatchingSerial(g *Graph, alg SerialAlgorithm, init *Matching) (m *Matching, err error) {
	defer guard(&err)
	if alg != HopcroftKarp {
		return nil, fmt.Errorf("mcmdist: unknown serial algorithm %d", int(alg))
	}
	var in *matching.Matching
	if init != nil {
		in = init.internal()
	}
	return fromInternal(matching.HopcroftKarp(g.a, in)), nil
}

// HallViolator returns, when m (a maximum matching of g) leaves columns
// unmatched, a set S of columns with |N(S)| < |S| — a Hall-condition
// violator proving no matching can saturate the columns. Returns nil when
// all columns are matched, and when m is not a valid matching of g (see
// Verify). The gap |S| - |N(S)| equals the deficiency.
func (g *Graph) HallViolator(m *Matching) []int {
	if !g.valid(m) {
		return nil
	}
	return verify.HallViolator(g.a, m.internal())
}

// MaximumTransversal returns a row permutation placing a maximum number of
// nonzeros on the diagonal of g's matrix: perm[i] = j means original row i
// moves to position j, so column j's matched entry lands on the diagonal.
// Unmatched rows fill the remaining positions arbitrarily. Returns nil when
// m is not a valid matching of g (see Verify). This is the sparse-solver
// preprocessing step that motivates the paper (Section I).
func MaximumTransversal(g *Graph, m *Matching) []int {
	if !g.valid(m) {
		return nil
	}
	n := g.Rows()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = -1
	}
	for j := 0; j < g.Cols() && j < n; j++ {
		if r := m.MateC[j]; r != Unmatched {
			perm[r] = j
		}
	}
	used := make([]bool, n)
	for _, p := range perm {
		if p >= 0 {
			used[p] = true
		}
	}
	next := 0
	for i := range perm {
		if perm[i] == -1 {
			for used[next] {
				next++
			}
			perm[i] = next
			used[next] = true
		}
	}
	return perm
}
