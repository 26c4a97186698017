package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"mcmdist/internal/costmodel"
	"mcmdist/internal/dvec"
	"mcmdist/internal/obs"
	"mcmdist/internal/spmat"
)

// Canonical engine names. The three BFS engines are implemented in this
// package (their phase kernels share core's private SpMV/select/augment
// machinery and core's own tests exercise them without an extra import);
// EngineAuction is implemented and registered by internal/engine, the
// external plug-in path the seam exists for. EngineAuto is not an engine:
// ResolveEngineConfig replaces it with a concrete choice from the cost
// model before a solver is built.
const (
	// EngineBFS is the paper's MCM-DIST (Algorithm 2): multi-source BFS
	// phases with pruning, per-phase parent vectors.
	EngineBFS = "bfs"
	// EngineBFSSingleSource is the single-source ablation variant (one
	// unmatched column per phase).
	EngineBFSSingleSource = "bfs-ss"
	// EngineBFSGraft is the tree-grafting variant: alternating trees
	// persist across phases, only augmented trees release their rows.
	EngineBFSGraft = "bfs-graft"
	// EngineAuction is the distributed auction engine (internal/engine).
	EngineAuction = "auction"
	// EngineAuto asks ResolveEngineConfig to pick an engine per instance
	// via costmodel.SelectEngine.
	EngineAuto = "auto"
)

// EngineCaps declares what a registered engine supports, so drivers can
// refuse configurations the engine cannot honor instead of silently
// ignoring them.
type EngineCaps struct {
	// Checkpointable: the engine's mate vectors encode a valid matching at
	// every Iterate boundary, so phase-boundary checkpoint/restart works.
	Checkpointable bool
	// DirectionOptimized: the engine consults the push/pull direction
	// heuristic (Config.Direction has an effect).
	DirectionOptimized bool
	// Augmenting: the engine applies augmenting paths (Config.Augment has
	// an effect).
	Augmenting bool
	// Weighted: the engine can maximize edge weight, not only cardinality
	// (reserved for the weighted extension; no registered engine sets it
	// for solving yet, but the auction's price machinery is weight-ready).
	Weighted bool
}

// Engine is the pluggable solver seam: one maximum-matching algorithm
// family, instantiated per solve via Start. Implementations must be
// stateless values (all per-solve state lives in the EngineRun) and must be
// SPMD-collective exactly like the rest of core: every rank of the grid
// calls Start/Iterate in lockstep with an identical sequence of
// collectives.
type Engine interface {
	// Name returns the canonical registry name.
	Name() string
	// Caps returns the engine's capability flags.
	Caps() EngineCaps
	// Start begins one solve on this rank's solver and mate-vector pieces
	// (already initialized to a valid matching by InitOrRestore).
	Start(s *Solver, mater, matec *dvec.Dense) EngineRun
}

// EngineRun is one in-progress solve. Iterate executes one phase (a unit of
// progress after which the mate vectors again encode a valid matching — the
// checkpoint boundary) and reports whether the matching is maximum.
// RunEngine seals every run itself (cardinality, thread telemetry, solve
// span), so an engine only iterates.
type EngineRun interface {
	Iterate() (done bool, err error)
}

var engineRegistry = struct {
	sync.RWMutex
	byName map[string]Engine
}{byName: map[string]Engine{}}

// RegisterEngine adds an engine to the registry, panicking on an empty or
// duplicate name (registration happens in init functions, where a panic is
// the loudest available diagnostic).
func RegisterEngine(e Engine) {
	name := e.Name()
	if name == "" || name == EngineAuto {
		panic(fmt.Sprintf("core: cannot register engine with reserved name %q", name))
	}
	engineRegistry.Lock()
	defer engineRegistry.Unlock()
	if _, dup := engineRegistry.byName[name]; dup {
		panic(fmt.Sprintf("core: engine %q registered twice", name))
	}
	engineRegistry.byName[name] = e
}

// EngineByName looks up a registered engine.
func EngineByName(name string) (Engine, bool) {
	engineRegistry.RLock()
	defer engineRegistry.RUnlock()
	e, ok := engineRegistry.byName[name]
	return e, ok
}

// EngineNames returns the registered engine names, sorted.
func EngineNames() []string {
	engineRegistry.RLock()
	defer engineRegistry.RUnlock()
	out := make([]string, 0, len(engineRegistry.byName))
	for name := range engineRegistry.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// checkEngine validates an engine spelling: "" (the default, bfs), "auto",
// or a canonical engine name. It checks spelling only; whether the engine is
// registered in this binary is checked by ResolveEngineConfig, so flag
// parsing does not depend on package import order.
func checkEngine(name string) error {
	switch name {
	case "", EngineAuto, EngineBFS, EngineBFSSingleSource, EngineBFSGraft, EngineAuction:
		return nil
	}
	return fmt.Errorf("core: unknown engine %q (want %s, %s, %s, %s or %s)",
		name, EngineBFS, EngineBFSSingleSource, EngineBFSGraft, EngineAuction, EngineAuto)
}

// ResolveEngineConfig validates cfg and pins cfg.Engine to a concrete
// registered engine, replacing "auto" with the cost model's per-instance
// choice computed from the global matrix a, in the index space the solve
// distributes (degree distribution, density, grid size, thread count — all
// SPMD-replicated, so every rank resolves identically). The solve drivers
// call it once before building solvers, so checkpoint hashes and Stats
// always see the concrete engine.
func ResolveEngineConfig(cfg Config, a *spmat.CSC) (Config, error) {
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	cfg = cfg.withDefaults()
	if cfg.Engine == EngineAuto {
		cfg.Engine = costmodel.SelectEngine(costmodel.Laptop, engineFeatures(cfg, a)).Engine
	}
	if _, ok := EngineByName(cfg.Engine); !ok {
		return cfg, fmt.Errorf("core: engine %q is not registered in this binary (have %v)", cfg.Engine, EngineNames())
	}
	return cfg, nil
}

// engineFeatures summarizes the instance for the online selector: shape,
// density, and the column-degree coefficient of variation (the skew signal —
// auction rounds degrade on power-law degree distributions while BFS phases
// do not). The squared deviations are summed in column order.
func engineFeatures(cfg Config, a *spmat.CSC) costmodel.GraphFeatures {
	n2, nnz := a.NCols, a.NNZ()
	cv := 0.0
	if n2 > 0 && nnz > 0 {
		mean := float64(nnz) / float64(n2)
		var ss float64
		for j := 0; j < n2; j++ {
			diff := float64(a.ColDegree(j)) - mean
			ss += diff * diff
		}
		cv = math.Sqrt(ss/float64(n2)) / mean
	}
	return costmodel.GraphFeatures{
		N1: a.NRows, N2: n2, NNZ: nnz, DegCV: cv,
		Procs: cfg.Procs, Threads: cfg.Threads,
	}
}

// RunEngine drives one engine to completion on this rank: record the engine
// in Stats, Iterate until the matching is maximum, then seal the run — the
// final cardinality, the worker pool's telemetry, and a solve span named
// after the engine. Collective.
func (s *Solver) RunEngine(e Engine, mater, matec *dvec.Dense) error {
	s.Stats.Engine = e.Name()
	trc := s.G.RT.Tracer()
	solve0 := trc.Begin()
	run := e.Start(s, mater, matec)
	for {
		done, err := run.Iterate()
		if err != nil {
			return err
		}
		if done {
			break
		}
	}
	s.Stats.Cardinality = s.N2 - s.countUnmatched(matec)
	s.captureThreadStats()
	trc.End(obs.KindSolve, e.Name(), solve0, int64(s.Stats.Cardinality))
	return nil
}

// RunEngineByName is RunEngine with a registry lookup.
func (s *Solver) RunEngineByName(name string, mater, matec *dvec.Dense) error {
	e, ok := EngineByName(name)
	if !ok {
		return fmt.Errorf("core: engine %q is not registered in this binary (have %v)", name, EngineNames())
	}
	return s.RunEngine(e, mater, matec)
}

// Track runs fn, attributing its wall time, meter delta and comm-time delta
// to op in this solve's Stats — the hook external engine packages use to
// meter their phases exactly like the in-core ones.
func (s *Solver) Track(op Op, fn func()) { s.tr.track(op, fn) }

// ObsIterBegin opens one engine iteration's observation window. See
// obsIterBegin.
func (s *Solver) ObsIterBegin() int64 { return s.obsIterBegin() }

// ObsIterEnd closes an iteration opened by ObsIterBegin, updating the
// peak-frontier summary and the per-iteration time-series and reporting the
// iteration to Config.OnIteration. See obsIterEnd.
func (s *Solver) ObsIterEnd(t0 int64, phase, frontier, newPaths int, pull bool) {
	s.obsIterEnd(t0, phase, frontier, newPaths, pull)
}

// MaybeCheckpoint takes a phase-boundary checkpoint when the configuration
// asks for one. Engines call it whenever their mate vectors re-enter the
// valid-matching invariant. Collective.
func (s *Solver) MaybeCheckpoint(phase int, mater, matec *dvec.Dense) {
	s.maybeCheckpoint(phase, mater, matec)
}
