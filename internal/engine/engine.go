// Package engine hosts the matching engines that plug into core's Engine
// seam from outside the core package.
//
// Placement: the three MS-BFS engines live inside internal/core — their
// phase kernels are core's private SpMV/select/augment machinery and core's
// in-package tests drive them directly — while algorithm families that only
// need core's exported surface (the Solver fields, the Track/Checkpoint
// hooks, the mpi/dvec primitives) register themselves here. The auction
// engine is the first such plug-in. Importing this package (typically as a
// blank import) is what makes those engines available; see docs/ENGINES.md.
package engine
