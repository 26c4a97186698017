package core

import (
	"fmt"
	"math"
	"sort"

	"mcmdist/internal/costmodel"
	"mcmdist/internal/dvec"
	"mcmdist/internal/obs"
	"mcmdist/internal/spmat"
)

// Canonical engine names. EngineAuto is not an engine: ResolveEngineConfig
// replaces it with a concrete choice from the cost model before a solver is
// built.
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
	// EngineAuction is the distributed auction engine (engine_auction.go).
	EngineAuction = "auction"
	// EngineAuto asks ResolveEngineConfig to pick an engine per instance
	// via costmodel.SelectEngine.
	EngineAuto = "auto"
)

// engineRun is one in-progress solve. Iterate executes one phase (a unit of
// progress after which the mate vectors again encode a valid matching — the
// checkpoint boundary) and reports whether the matching is maximum.
// RunEngine seals every run itself (cardinality, thread telemetry, solve
// span), so an engine only iterates. Every rank calls Iterate in lockstep
// with an identical sequence of collectives.
type engineRun interface {
	Iterate() (done bool, err error)
}

// engines is the closed engine set: each name maps to the function that
// begins one solve on this rank's solver and mate-vector pieces (already
// initialized to a valid matching by InitOrRestore).
var engines = map[string]func(s *Solver, mater, matec *dvec.Dense) engineRun{
	EngineBFS:             startBFS,
	EngineBFSSingleSource: startBFSSS,
	EngineBFSGraft:        startBFSGraft,
	EngineAuction:         startAuction,
}

// EngineNames returns the engine names, sorted.
func EngineNames() []string {
	out := make([]string, 0, len(engines))
	for name := range engines {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// checkEngine validates an engine spelling: "" (the default, bfs), "auto",
// or a name in the engine table.
func checkEngine(name string) error {
	if _, ok := engines[name]; ok || name == "" || name == EngineAuto {
		return nil
	}
	return fmt.Errorf("core: unknown engine %q (want %s, %s, %s, %s or %s)",
		name, EngineBFS, EngineBFSSingleSource, EngineBFSGraft, EngineAuction, EngineAuto)
}

// ResolveEngineConfig validates cfg and pins cfg.Engine to a concrete
// engine, replacing "auto" with the cost model's per-instance
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
		// The cost model spells its verdicts as literals; hold them to the
		// table.
		cfg.Engine = costmodel.SelectEngine(costmodel.Laptop, engineFeatures(cfg, a)).Engine
		if _, ok := engines[cfg.Engine]; !ok {
			return cfg, fmt.Errorf("core: cost model chose unknown engine %q (have %v)", cfg.Engine, EngineNames())
		}
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

// RunEngine drives the named engine to completion on this rank: record the
// engine in Stats, Iterate until the matching is maximum, then seal the run —
// the final cardinality, the worker pool's telemetry, and a solve span named
// after the engine. Collective.
func (s *Solver) RunEngine(name string, mater, matec *dvec.Dense) error {
	start, ok := engines[name]
	if !ok {
		return fmt.Errorf("core: unknown engine %q (have %v)", name, EngineNames())
	}
	s.Stats.Engine = name
	trc := s.G.RT.Tracer()
	solve0 := trc.Begin()
	run := start(s, mater, matec)
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
	trc.End(obs.KindSolve, name, solve0, int64(s.Stats.Cardinality))
	return nil
}
