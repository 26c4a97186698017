// Package mcmdist is a Go reproduction of "Distributed-Memory Algorithms
// for Maximum Cardinality Matching in Bipartite Graphs" (Ariful Azad, Aydın
// Buluç, IPDPS 2016).
//
// The package computes maximum cardinality matchings (MCM) in bipartite
// graphs with the paper's matrix-algebraic multi-source BFS algorithm
// (MCM-DIST), executed on a simulated distributed-memory machine: ranks are
// goroutines, CombBLAS-style 2D matrix distribution, bulk-synchronous
// collectives for the heavy primitives (semiring SpMV, INVERT, PRUNE) and
// one-sided RMA operations for the asynchronous path-parallel augmentation.
// Communication is metered exactly (messages, words, local work), so the
// paper's alpha-beta cost model can project runs to supercomputer scale.
//
// Quick start:
//
//	g, _ := mcmdist.RMAT(mcmdist.G500, 14, 16, 42)
//	m, stats, err := mcmdist.MaximumMatching(g, mcmdist.Options{Procs: 16})
//	if err != nil { ... }
//	fmt.Println(m.Cardinality(), stats.Phases)
//	if err := g.VerifyMaximum(m); err != nil { ... } // König certificate
//
// The serial Hopcroft–Karp oracle is available through
// MaximumMatchingSerial, and the three distributed maximal-matching
// initializers (greedy, Karp–Sipser, dynamic mindegree) alone through
// DistributedGraph.MaximalMatchingDistributed.
// The cmd/bench tool regenerates every table and figure of the paper's
// evaluation section; see DESIGN.md and EXPERIMENTS.md.
package mcmdist
