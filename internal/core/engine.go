package core

import (
	"fmt"
	"sort"
	"strings"

	"mcmdist/internal/dvec"
	"mcmdist/internal/obs"
)

// Canonical engine names. EngineAuto is not an engine: Config.withDefaults
// maps it, like "", to EngineBFS.
const (
	// EngineBFS is the paper's MCM-DIST (Algorithm 2): multi-source BFS
	// phases with pruning, per-phase parent vectors.
	EngineBFS = "bfs"
	// EngineBFSSingleSource is the single-source ablation variant (one
	// unmatched column per phase).
	EngineBFSSingleSource = "bfs-ss"
	// EngineAuto is an alias of EngineBFS, kept so existing specs and
	// command lines that spell "auto" still run. No per-instance choice
	// beats bfs overall in the engine sweep (docs/ENGINES.md).
	EngineAuto = "auto"
)

// engineRun is one in-progress solve. Iterate executes one phase (a unit of
// progress after which the mate vectors again encode a valid matching — the
// checkpoint boundary) and reports whether the matching is maximum.
// RunEngine seals every run itself (cardinality, thread telemetry, solve
// span), so an engine only iterates. Every rank calls Iterate in lockstep
// with an identical sequence of collectives.
type engineRun interface {
	Iterate() (done bool)
}

// engines is the closed engine set: each name maps to the function that
// begins one solve on this rank's solver and mate-vector pieces (already
// initialized to a valid matching by InitOrRestore).
var engines = map[string]func(s *Solver, mater, matec *dvec.Dense) engineRun{
	EngineBFS:             startBFS,
	EngineBFSSingleSource: startBFSSS,
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
	return fmt.Errorf("core: unknown engine %q (want %s or %s)",
		name, strings.Join(EngineNames(), ", "), EngineAuto)
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
	for !run.Iterate() {
	}
	s.Stats.Cardinality = s.N2 - s.countUnmatched(matec)
	s.captureThreadStats()
	trc.End(obs.KindSolve, name, solve0, int64(s.Stats.Cardinality))
	return nil
}
