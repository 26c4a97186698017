package core

import (
	"mcmdist/internal/dvec"
	"mcmdist/internal/mpi"
	"mcmdist/internal/obs"
	"mcmdist/internal/semiring"
)

// This file holds the three MS-BFS engines behind the Engine seam. Each
// Iterate() executes exactly one phase of the multi-source, single-source or
// tree-grafting search — the direction × compression × backend × threads
// sweep tests pin that every trajectory is bit-identical. The engines live in core rather than internal/engine because their phase
// kernels are core's private SpMV/select/augment machinery and because
// core's own in-package tests drive them through Solve; internal/engine
// hosts the external plug-ins (docs/ENGINES.md discusses the trade-off).

func init() {
	RegisterEngine(bfsEngine{})
	RegisterEngine(bfsSSEngine{})
	RegisterEngine(bfsGraftEngine{})
}

// bfsEngine is MCM-DIST (Algorithm 2): every phase searches from all
// unmatched columns at once and augments by every vertex-disjoint path found.
type bfsEngine struct{}

// Name returns "bfs".
func (bfsEngine) Name() string { return EngineBFS }

// Caps reports the full BFS capability set.
func (bfsEngine) Caps() EngineCaps {
	return EngineCaps{Checkpointable: true, DirectionOptimized: true, Augmenting: true}
}

// Start begins one MCM-DIST solve.
func (bfsEngine) Start(s *Solver, mater, matec *dvec.Dense) EngineRun {
	trc := s.G.RT.Tracer()
	return &bfsRun{s: s, mater: mater, matec: matec, solve0: trc.Begin()}
}

type bfsRun struct {
	s            *Solver
	mater, matec *dvec.Dense
	solve0       int64
	// dir carries the adaptive direction choice (see direction.go): the
	// sticky pull-disable, the per-phase discovery count, and the resolved
	// switch threshold.
	dir   dirState
	phase int
}

// Iterate runs one MS-BFS phase: grow alternating trees level by level from
// every unmatched column, then augment by all vertex-disjoint paths found.
// Returns done when a phase discovers no path (the matching is maximum).
func (r *bfsRun) Iterate() (bool, error) {
	s := r.s
	trc := s.G.RT.Tracer()
	mater, matec := r.mater, r.matec
	r.phase++
	phase := r.phase
	r.dir.resetPhase()
	phase0 := trc.Begin()
	// Per-phase state: parents of visited rows and endpoints of
	// discovered augmenting paths (Algorithm 2, lines 3-5).
	pir := dvec.NewDense(s.RowL, semiring.None)
	pathc := dvec.NewDense(s.ColL, semiring.None)

	var fc *dvec.SparseV
	var fcCount *mpi.ValueRequest
	s.tr.track(OpOther, func() {
		fc = s.unmatchedColFrontier(matec)
		fcCount = s.startFrontierCount(fc)
	})
	pathsFound := 0

	for {
		var frontierSize int
		s.tr.track(OpOther, func() {
			frontierSize = int(fcCount.Wait())
		})
		if frontierSize == 0 {
			break
		}
		s.Stats.Iterations++
		iter0 := s.obsIterBegin()

		// Step 1: explore neighbors of the column frontier in the
		// direction chooseDirection picks for this iteration (see
		// direction.go and docs/KERNELS.md for the heuristic).
		var fr *dvec.SparseV
		usePull := s.chooseDirection(&r.dir, frontierSize)
		s.tr.track(OpSpMV, func() {
			fr = s.mulDirected(usePull, &r.dir, fc, pir)
		})

		// Steps 2-4: unvisited rows; record parents; split into
		// unmatched (path endpoints) and matched rows.
		var ufr *dvec.SparseV
		s.tr.track(OpSelect, func() {
			fr = fr.Select(pir, func(v int64) bool { return v == semiring.None })
			pir.ScatterParents(fr)
			ufr = fr.Select(mater, func(v int64) bool { return v == semiring.None })
			fr = fr.Select(mater, func(v int64) bool { return v != semiring.None })
		})
		if s.adaptiveDirection() {
			// Track discovered rows for the direction heuristic (the
			// same frontier-size allreduce real direction-optimizing
			// BFS implementations perform each level).
			s.tr.track(OpOther, func() {
				r.dir.noteDiscovered(fr.Nnz() + ufr.Nnz())
			})
		}

		var newPaths int
		s.tr.track(OpOther, func() { newPaths = ufr.Nnz() })
		if newPaths > 0 {
			// Step 5: store endpoints of newly discovered augmenting
			// paths, one per alternating tree (INVERT keeps one).
			var tc *dvec.SparseV
			s.tr.track(OpInvert, func() {
				tc = ufr.InvertRoots(s.ColL)
			})
			s.tr.track(OpSelect, func() {
				pathc.ScatterParents(tc)
			})
			s.tr.track(OpOther, func() {
				pathsFound += tc.Nnz()
			})

			// Step 6: prune vertices in trees that already yielded a
			// path (the Fig. 8 ablation switch).
			if !s.Cfg.DisablePrune {
				s.tr.track(OpPrune, func() {
					roots := ufr.RootVals(s.G.RT.GetInts(ufr.LocalNnz()))
					fr = fr.PruneRoots(roots)
					s.G.RT.PutInts(roots)
				})
			}
		}

		// Step 7: next column frontier from the mates of the matched
		// rows that remain.
		s.tr.track(OpSelect, func() {
			fr.SetParentsFrom(mater)
		})
		s.tr.track(OpInvert, func() {
			fc = fr.InvertParents(s.ColL)
			fcCount = s.startFrontierCount(fc)
		})

		s.obsIterEnd(iter0, phase, frontierSize, newPaths, usePull)
		if s.Cfg.OnIteration != nil && s.G.World.Rank() == 0 {
			s.Cfg.OnIteration(IterInfo{
				Phase:        phase,
				Iteration:    s.Stats.Iterations,
				FrontierSize: frontierSize,
				NewPaths:     newPaths,
				Pull:         usePull,
			})
		}
	}

	if pathsFound == 0 {
		trc.End(obs.KindPhase, "phase", phase0, int64(phase))
		return true, nil // no augmenting path in this phase: matching is maximum
	}
	s.Stats.Phases++
	s.Stats.AugmentedPaths += pathsFound

	// Step 8: augment by all paths found in this phase. The mate
	// vectors re-enter the "valid matching" invariant here, making the
	// phase boundary a restart point for checkpoint/restart.
	s.tr.track(OpAugment, func() {
		s.augment(pathc, pir, mater, matec, pathsFound)
	})
	s.maybeCheckpoint(s.Stats.Phases, mater, matec)
	trc.End(obs.KindPhase, "phase", phase0, int64(phase))
	return false, nil
}

// Finish seals the run: final cardinality, thread telemetry, solve span.
func (r *bfsRun) Finish() error {
	s := r.s
	s.Stats.Cardinality = s.N2 - s.countUnmatched(r.matec)
	s.captureThreadStats()
	s.G.RT.Tracer().End(obs.KindSolve, "mcm", r.solve0, int64(s.Stats.Cardinality))
	return nil
}

// bfsSSEngine is the single-source (SS-BFS) variant the paper's Section
// III-A dismisses: each phase searches from ONE unmatched column instead of
// all of them. It exists to quantify that argument — the level-synchronous
// machinery is identical, but the algorithm needs ~|C| phases of ~diameter
// iterations each, so its synchronization count (and hence its latency
// term) explodes while every SpMV does trivial work.
type bfsSSEngine struct{}

// Name returns "bfs-ss".
func (bfsSSEngine) Name() string { return EngineBFSSingleSource }

// Caps matches bfs except that pruning never engages (one tree per phase).
func (bfsSSEngine) Caps() EngineCaps {
	return EngineCaps{Checkpointable: true, DirectionOptimized: true, Augmenting: true}
}

// Start begins one single-source solve.
func (bfsSSEngine) Start(s *Solver, mater, matec *dvec.Dense) EngineRun {
	return &bfsSSRun{
		s: s, mater: mater, matec: matec,
		solve0: s.G.RT.Tracer().Begin(),
		// retired marks columns proven unmatchable: once no augmenting path
		// leaves a vertex, none ever will again (augmentations only grow the
		// reachable matching), so retirement is permanent.
		retired: dvec.NewDense(s.ColL, 0),
	}
}

type bfsSSRun struct {
	s            *Solver
	mater, matec *dvec.Dense
	solve0       int64
	dir          dirState
	retired      *dvec.Dense
}

// Iterate runs one single-source phase: pick the globally smallest
// unmatched, unretired column, search until the first augmenting path, and
// apply it (or retire the source). Returns done when no source remains.
func (r *bfsSSRun) Iterate() (bool, error) {
	s := r.s
	mater, matec := r.mater, r.matec
	r.dir.resetPhase()
	pir := dvec.NewDense(s.RowL, semiring.None)
	pathc := dvec.NewDense(s.ColL, semiring.None)

	// Frontier: the single globally-smallest unmatched, unretired column.
	var fc *dvec.SparseV
	var src int64
	s.tr.track(OpOther, func() {
		lo := s.ColL.MyRange().Lo
		local := int64(s.N2)
		for i, v := range matec.Local {
			if v == semiring.None && r.retired.Local[i] == 0 {
				local = int64(lo + i)
				break
			}
		}
		src = s.G.World.Allreduce(mpi.OpMin, local)
		fc = dvec.NewSparseV(s.ColL)
		if src < int64(s.N2) && s.ColL.MyRange().Contains(int(src)) {
			fc.Append(int(src), semiring.Self(src))
		}
		s.G.World.AddWork(len(matec.Local))
	})
	if src >= int64(s.N2) {
		return true, nil // every unmatched column is retired: maximum reached
	}
	pathsFound := 0

	for {
		var frontierSize int
		s.tr.track(OpOther, func() { frontierSize = fc.Nnz() })
		if frontierSize == 0 {
			break
		}
		s.Stats.Iterations++
		iter0 := s.obsIterBegin()

		var fr *dvec.SparseV
		usePull := s.chooseDirection(&r.dir, frontierSize)
		s.tr.track(OpSpMV, func() {
			fr = s.mulDirected(usePull, &r.dir, fc, pir)
		})
		var ufr *dvec.SparseV
		s.tr.track(OpSelect, func() {
			fr = fr.Select(pir, func(v int64) bool { return v == semiring.None })
			pir.ScatterParents(fr)
			ufr = fr.Select(mater, func(v int64) bool { return v == semiring.None })
			fr = fr.Select(mater, func(v int64) bool { return v != semiring.None })
		})
		if s.adaptiveDirection() {
			s.tr.track(OpOther, func() {
				r.dir.noteDiscovered(fr.Nnz() + ufr.Nnz())
			})
		}
		var newPaths int
		s.tr.track(OpOther, func() { newPaths = ufr.Nnz() })
		if newPaths > 0 {
			var tc *dvec.SparseV
			s.tr.track(OpInvert, func() { tc = ufr.InvertRoots(s.ColL) })
			s.tr.track(OpSelect, func() { pathc.ScatterParents(tc) })
			s.tr.track(OpOther, func() { pathsFound += tc.Nnz() })
			s.obsIterEnd(iter0, s.Stats.Phases+1, frontierSize, newPaths, usePull)
			break // single source: the first augmenting path ends the phase
		}
		s.tr.track(OpSelect, func() { fr.SetParentsFrom(mater) })
		s.tr.track(OpInvert, func() { fc = fr.InvertParents(s.ColL) })
		s.obsIterEnd(iter0, s.Stats.Phases+1, frontierSize, newPaths, usePull)
	}

	if pathsFound == 0 {
		// The source is unmatchable now, hence forever: retire it.
		if s.ColL.MyRange().Contains(int(src)) {
			r.retired.SetAt(int(src), 1)
		}
		return false, nil
	}
	s.Stats.Phases++
	s.Stats.AugmentedPaths += pathsFound
	s.tr.track(OpAugment, func() {
		s.augment(pathc, pir, mater, matec, pathsFound)
	})
	s.maybeCheckpoint(s.Stats.Phases, mater, matec)
	return false, nil
}

// Finish seals the run under the historical "mcm-ss" solve span.
func (r *bfsSSRun) Finish() error {
	s := r.s
	s.Stats.Cardinality = s.N2 - s.countUnmatched(r.matec)
	s.captureThreadStats()
	s.G.RT.Tracer().End(obs.KindSolve, "mcm-ss", r.solve0, int64(s.Stats.Cardinality))
	return nil
}

// bfsGraftEngine is the tree-grafting variant of MCM-DIST — the distributed
// form of MS-BFS-Graft [Azad, Buluç, Pothen], which the paper names as
// future work. The difference from bfs: the parent and tree-ownership
// vectors persist across phases, so alternating trees that found no
// augmenting path keep their traversal; only the trees that were augmented
// release their vertices, and released rows are grafted onto surviving
// trees when rediscovered.
//
// Rendition note (same as the serial matching.MSBFSGraft): when a grafted
// phase discovers nothing, all state is reset and one plain MS-BFS phase
// runs; only if that fresh sweep also finds nothing is the matching
// declared maximum, which keeps the termination condition identical to
// Algorithm 2's.
type bfsGraftEngine struct{}

// Name returns "bfs-graft".
func (bfsGraftEngine) Name() string { return EngineBFSGraft }

// Caps reports the full BFS capability set.
func (bfsGraftEngine) Caps() EngineCaps {
	return EngineCaps{Checkpointable: true, DirectionOptimized: true, Augmenting: true}
}

// Start begins one tree-grafting solve.
func (bfsGraftEngine) Start(s *Solver, mater, matec *dvec.Dense) EngineRun {
	return &bfsGraftRun{
		s: s, mater: mater, matec: matec,
		solve0: s.G.RT.Tracer().Begin(),
		// Persistent across phases: parents of visited rows and the root of
		// the alternating tree owning each row (None = unowned).
		pir:   dvec.NewDense(s.RowL, semiring.None),
		rootR: dvec.NewDense(s.RowL, semiring.None),
	}
}

type bfsGraftRun struct {
	s            *Solver
	mater, matec *dvec.Dense
	solve0       int64
	pir, rootR   *dvec.Dense
	// dir mirrors rootR's lifetime, not the phase's: tree ownership persists
	// across grafted phases, so the discovered-row count feeding the
	// heuristic only resets when the trees do.
	dir   dirState
	fresh bool // true while running the full-reset verification phase
	phase int  // sweeps started, fresh verification sweeps included
}

// Iterate runs one grafted sweep. An empty grafted sweep triggers the
// full-reset verification phase; only an empty fresh sweep reports done.
func (r *bfsGraftRun) Iterate() (bool, error) {
	s := r.s
	trc := s.G.RT.Tracer()
	mater, matec := r.mater, r.matec
	pir, rootR := r.pir, r.rootR
	r.phase++
	phase := r.phase
	phase0 := trc.Begin()
	pathc := dvec.NewDense(s.ColL, semiring.None)
	var fc *dvec.SparseV
	var fcCount *mpi.ValueRequest
	s.tr.track(OpOther, func() {
		fc = s.unmatchedColFrontier(matec)
		fcCount = s.startFrontierCount(fc)
	})
	pathsFound := 0

	for {
		var frontierSize int
		s.tr.track(OpOther, func() {
			frontierSize = int(fcCount.Wait())
		})
		if frontierSize == 0 {
			break
		}
		s.Stats.Iterations++
		iter0 := s.obsIterBegin()

		// The pull direction's visited set is rootR — exactly the set the
		// grafting filter below drops — so rows owned by any surviving
		// tree are skipped before the scan rather than after.
		var fr *dvec.SparseV
		usePull := s.chooseDirection(&r.dir, frontierSize)
		s.tr.track(OpSpMV, func() {
			fr = s.mulDirected(usePull, &r.dir, fc, rootR)
		})

		// Grafting filter: skip rows owned by ANY tree, from this phase
		// or an earlier one. Fresh rows are claimed for the discovering
		// tree (ownership recorded in rootR, parents in pi_r).
		var ufr *dvec.SparseV
		s.tr.track(OpSelect, func() {
			fr = fr.Select(rootR, func(v int64) bool { return v == semiring.None })
			pir.ScatterParents(fr)
			rootR.ScatterRoots(fr)
			ufr = fr.Select(mater, func(v int64) bool { return v == semiring.None })
			fr = fr.Select(mater, func(v int64) bool { return v != semiring.None })
		})
		if s.adaptiveDirection() {
			s.tr.track(OpOther, func() {
				r.dir.noteDiscovered(fr.Nnz() + ufr.Nnz())
			})
		}

		var newPaths int
		s.tr.track(OpOther, func() { newPaths = ufr.Nnz() })
		if newPaths > 0 {
			var tc *dvec.SparseV
			s.tr.track(OpInvert, func() {
				tc = ufr.InvertRoots(s.ColL)
			})
			s.tr.track(OpSelect, func() {
				pathc.ScatterParents(tc)
			})
			s.tr.track(OpOther, func() {
				pathsFound += tc.Nnz()
			})
			if !s.Cfg.DisablePrune {
				s.tr.track(OpPrune, func() {
					roots := ufr.RootVals(s.G.RT.GetInts(ufr.LocalNnz()))
					fr = fr.PruneRoots(roots)
					s.G.RT.PutInts(roots)
				})
			}
		}

		s.tr.track(OpSelect, func() {
			fr.SetParentsFrom(mater)
		})
		s.tr.track(OpInvert, func() {
			fc = fr.InvertParents(s.ColL)
			fcCount = s.startFrontierCount(fc)
		})
		s.obsIterEnd(iter0, phase, frontierSize, newPaths, usePull)
	}

	if pathsFound == 0 {
		trc.End(obs.KindPhase, "phase", phase0, int64(phase))
		if r.fresh {
			return true, nil // a full fresh sweep found nothing: maximum reached
		}
		// Grafted state may be blocking paths; reset and verify with
		// one plain phase.
		s.tr.track(OpOther, func() {
			pir.Fill(semiring.None)
			rootR.Fill(semiring.None)
			s.G.World.AddWork(len(pir.Local) + len(rootR.Local))
		})
		r.dir.resetPhase()
		s.Stats.GraftResets++
		r.fresh = true
		return false, nil
	}
	r.fresh = false
	s.Stats.Phases++
	s.Stats.AugmentedPaths += pathsFound

	s.tr.track(OpAugment, func() {
		s.augment(pathc, pir, mater, matec, pathsFound)
	})
	s.maybeCheckpoint(s.Stats.Phases, mater, matec)

	// Release the augmented (dead) trees: their vertices become
	// graftable. Dead roots are the pathc entries; every rank gathers
	// the full set (the same allgather pattern as PRUNE) and scans its
	// local pieces.
	s.tr.track(OpOther, func() {
		var local []int64
		lo := s.ColL.MyRange().Lo
		for i, end := range pathc.Local {
			if end != semiring.None {
				local = append(local, int64(lo+i))
			}
		}
		parts := s.G.World.Allgatherv(local)
		dead := make(map[int64]struct{})
		for _, p := range parts {
			for _, root := range p {
				dead[root] = struct{}{}
			}
		}
		released := 0
		for i, root := range rootR.Local {
			if root == semiring.None {
				continue
			}
			if _, ok := dead[root]; ok {
				rootR.Local[i] = semiring.None
				pir.Local[i] = semiring.None
				released++
			}
		}
		globalReleased := int(s.G.World.Allreduce(mpi.OpSum, int64(released)))
		s.Stats.GraftReleasedRows += globalReleased
		// Released rows are unowned again: fold them back into the
		// direction heuristic's unvisited count.
		r.dir.noteDiscovered(-globalReleased)
		s.G.World.AddWork(len(rootR.Local) + len(dead))
	})
	trc.End(obs.KindPhase, "phase", phase0, int64(phase))
	return false, nil
}

// Finish seals the run under the historical "mcm-graft" solve span.
func (r *bfsGraftRun) Finish() error {
	s := r.s
	s.Stats.Cardinality = s.N2 - s.countUnmatched(r.matec)
	s.captureThreadStats()
	s.G.RT.Tracer().End(obs.KindSolve, "mcm-graft", r.solve0, int64(s.Stats.Cardinality))
	return nil
}
