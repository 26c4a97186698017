// Package engine hosts the matching engines that plug into core's Engine
// seam from outside the core package, plus a small façade over the registry
// for callers that want to enumerate engines or read their capabilities
// without reaching into core.
//
// Placement: the three MS-BFS engines live inside internal/core — their
// phase kernels are core's private SpMV/select/augment machinery and core's
// in-package tests drive them directly — while algorithm families that only
// need core's exported surface (the Solver fields, the Track/Checkpoint
// hooks, the mpi/dvec primitives) register themselves here. The auction
// engine is the first such plug-in. Importing this package (typically as a
// blank import) is what makes those engines available; see docs/ENGINES.md.
package engine

import "mcmdist/internal/core"

// Names returns every engine registered in this binary, sorted. With this
// package imported that is at least bfs, bfs-graft, bfs-ss and auction.
func Names() []string { return core.EngineNames() }

// Caps returns the capability flags of a registered engine.
func Caps(name string) (core.EngineCaps, bool) {
	e, ok := core.EngineByName(name)
	if !ok {
		return core.EngineCaps{}, false
	}
	return e.Caps(), true
}
