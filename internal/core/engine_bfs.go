package core

import (
	"mcmdist/internal/dvec"
	"mcmdist/internal/mpi"
	"mcmdist/internal/obs"
	"mcmdist/internal/semiring"
)

// This file holds the two MS-BFS engines. They run one copy of Algorithm
// 2's phase (searchPhase: the level-synchronous search and the augmentation
// by the paths it found); each engine keeps only its policy — where a phase
// starts and whether it stops at the first path. Each Iterate() executes
// exactly one phase; the direction × compression × backend × threads sweep
// tests pin that every trajectory is bit-identical.

// msbfs is the state the two BFS engines carry across the phases of one
// solve.
type msbfs struct {
	s            *Solver
	mater, matec *dvec.Dense
	// pir holds the parents of the rows visited in this phase (π_r): the
	// rows a level may not claim. Each phase refills it with None.
	pir *dvec.Dense
	// The level buffers, held for the solve rather than lent by the rt
	// arena: a vector the level has finished with lends its storage to the
	// next output. col holds the column frontier f_c, dead once the SpMV returns
	// and refilled by the next INVERT; row holds the row frontier f_r, dead
	// once that INVERT returns and refilled by the next SpMV. ufr and tc
	// hold each level's path endpoints, row- and col-aligned.
	col, row, ufr, tc *dvec.SparseV
	// pathc maps each root column to the unmatched row ending its path
	// (path_c); each phase refills it with None.
	pathc *dvec.Dense
	// aug holds the level-parallel augmentation's sparse vectors.
	aug levelVecs
	// dir carries the adaptive direction choice (see direction.go): the
	// sticky pull-disable, the discovered-row count, and the resolved
	// switch threshold.
	dir dirState
	// phase numbers the searches started, empty ones included. It labels
	// the phase spans and the iteration time-series.
	phase int
}

// newMSBFS holds the run's vectors for the solve (see rt's solve-lifetime
// store).
func newMSBFS(s *Solver, mater, matec *dvec.Dense) msbfs {
	return msbfs{
		s: s, mater: mater, matec: matec,
		col: dvec.HoldSparseV(s.ColL), row: dvec.HoldSparseV(s.RowL),
		ufr: dvec.HoldSparseV(s.RowL), tc: dvec.HoldSparseV(s.ColL),
		pathc: dvec.HoldDense(s.ColL, semiring.None),
		aug:   s.holdLevelVecs(),
		pir:   dvec.HoldDense(s.RowL, semiring.None),
	}
}

// openPhase numbers the next search and opens its phase span; the returned
// function closes the span.
func (r *msbfs) openPhase() func() {
	r.phase++
	trc := r.s.G.RT.Tracer()
	phase, t0 := r.phase, trc.Begin()
	return func() { trc.End(obs.KindPhase, "phase", t0, int64(phase)) }
}

// unmatchedFrontier seeds a phase from every unmatched column with an edge
// (Algorithm 2, lines 6-8; an edgeless column grows no tree), in the column
// frontier's storage.
func (r *msbfs) unmatchedFrontier() *dvec.SparseV {
	var fc *dvec.SparseV
	r.s.tr.track(OpOther, func() { fc = r.s.unmatchedColFrontier(r.matec, r.col) })
	return fc
}

// searchPhase runs one phase of Algorithm 2: grow alternating trees level by
// level from the column frontier fc (Steps 1-7 per level), then augment by
// every vertex-disjoint path found (Step 8) and take the phase-boundary
// checkpoint. fc is r.col, and every level's vectors live in the run's
// level buffers. firstPath ends the search at the first level that finds a
// path (the single-source engine: its one tree has nothing left to prune).
// Returns the number of paths augmented; 0 means no augmenting path leaves
// fc. Collective.
func (r *msbfs) searchPhase(fc *dvec.SparseV, firstPath bool) int {
	s := r.s
	mater, pir := r.mater, r.pir
	r.dir.resetPhase()
	pir.Fill(semiring.None)
	r.pathc.Fill(semiring.None)
	var fcCount *mpi.Pending[int64]
	s.tr.track(OpOther, func() { fcCount = s.startFrontierCount(fc) })
	paths := 0

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
		// direction.go and docs/KERNELS.md for the heuristic). The pull
		// direction skips the visited rows before the scan, exactly the
		// set the SELECT below drops after a push.
		var fr *dvec.SparseV
		usePull := s.chooseDirection(&r.dir, frontierSize)
		s.tr.track(OpSpMV, func() {
			fr = s.mulDirected(usePull, &r.dir, fc, pir, r.row)
		})

		// Steps 2-4: unvisited rows; record parents; split into unmatched
		// (path endpoints) and matched rows.
		ufr := r.ufr
		s.tr.track(OpSelect, func() {
			fr.Select(pir, unset)
			pir.ScatterParents(fr)
			fr.Split(mater, unset, ufr)
		})
		var newPaths int
		s.tr.track(OpOther, func() {
			if !s.adaptiveDirection() {
				newPaths = ufr.Nnz()
				return
			}
			// The direction heuristic also tracks the discovered rows
			// (the frontier-size reduction real direction-optimizing BFS
			// implementations perform each level): |f_r| and |uf_r| in
			// one reduction.
			n := s.G.World.AllreduceN(mpi.OpSum, []int64{int64(fr.LocalNnz()), int64(ufr.LocalNnz())})
			newPaths = int(n[1])
			r.dir.noteDiscovered(int(n[0] + n[1]))
		})
		stop := false
		if newPaths > 0 {
			// Step 5: store endpoints of newly discovered augmenting
			// paths, one per alternating tree (INVERT keeps one).
			var tc *dvec.SparseV
			s.tr.track(OpInvert, func() {
				tc = ufr.InvertRoots(s.ColL, r.tc)
			})
			s.tr.track(OpSelect, func() {
				r.pathc.ScatterParents(tc)
			})
			s.tr.track(OpOther, func() {
				paths += tc.Nnz()
			})
			stop = firstPath

			// Step 6: prune vertices in trees that already yielded a
			// path (the Fig. 8 ablation switch).
			if !stop && !s.Cfg.DisablePrune {
				s.tr.track(OpPrune, func() {
					roots := ufr.RootVals(s.G.RT.GetInts(ufr.LocalNnz()))
					fr.PruneRoots(roots)
					s.G.RT.PutInts(roots)
				})
			}
		}

		if !stop {
			// Step 7: next column frontier from the mates of the
			// matched rows that remain.
			s.tr.track(OpSelect, func() {
				fr.SetParentsFrom(mater)
			})
			s.tr.track(OpInvert, func() {
				fc = fr.InvertParents(s.ColL, fc)
				fcCount = s.startFrontierCount(fc)
			})
		}
		s.obsIterEnd(iter0, r.phase, frontierSize, newPaths, usePull)
		if stop {
			break
		}
	}
	if paths == 0 {
		return 0
	}

	// Step 8: augment by all paths found in this phase. The mate vectors
	// re-enter the "valid matching" invariant here, making the phase
	// boundary a restart point for checkpoint/restart.
	s.Stats.Phases++
	s.Stats.AugmentedPaths += paths
	s.tr.track(OpAugment, func() {
		s.augment(r.pathc, pir, mater, r.matec, paths, &r.aug)
	})
	s.maybeCheckpoint(s.Stats.Phases, mater, r.matec)
	return paths
}

// unset is the SELECT predicate of a missing dense entry: an unvisited row
// against π_r, an unmatched one against mate_r.
func unset(v int64) bool { return v == semiring.None }

// startBFS begins one MCM-DIST (Algorithm 2) solve: every phase searches
// from all unmatched columns at once and augments by every vertex-disjoint
// path found.
func startBFS(s *Solver, mater, matec *dvec.Dense) engineRun {
	return &bfsRun{newMSBFS(s, mater, matec)}
}

type bfsRun struct{ msbfs }

// Iterate runs one MS-BFS phase from every unmatched column. Returns done
// when a phase discovers no path (the matching is maximum).
func (r *bfsRun) Iterate() bool {
	defer r.openPhase()()
	return r.searchPhase(r.unmatchedFrontier(), false) == 0
}

// startBFSSS begins one solve of the single-source (SS-BFS) variant the
// paper's Section III-A dismisses: each phase searches from ONE unmatched
// column instead of all of them, so pruning never engages. It exists to
// quantify that argument — the level-synchronous machinery is identical, but
// the algorithm needs ~|C| phases of ~diameter iterations each, so its
// synchronization count (and hence its latency term) explodes while every
// SpMV does trivial work.
func startBFSSS(s *Solver, mater, matec *dvec.Dense) engineRun {
	return &bfsSSRun{
		msbfs: newMSBFS(s, mater, matec),
		// retired marks columns proven unmatchable: once no augmenting path
		// leaves a vertex, none ever will again (augmentations only grow the
		// reachable matching), so retirement is permanent.
		retired: dvec.HoldDense(s.ColL, 0),
	}
}

type bfsSSRun struct {
	msbfs
	retired *dvec.Dense
}

// Iterate runs one single-source phase: pick the globally smallest
// unmatched, unretired column, search until the first augmenting path, and
// apply it (or retire the source). Returns done when no source remains.
func (r *bfsSSRun) Iterate() bool {
	s := r.s
	var src int64
	s.tr.track(OpOther, func() {
		lo := s.ColL.MyRange().Lo
		local := int64(s.N2)
		for i, v := range r.matec.Local {
			if v == semiring.None && r.retired.Local[i] == 0 {
				local = int64(lo + i)
				break
			}
		}
		src = s.G.World.Allreduce(mpi.OpMin, local)
		s.G.World.AddWork(len(r.matec.Local))
	})
	if src >= int64(s.N2) {
		return true // every unmatched column is retired: maximum reached
	}
	defer r.openPhase()()
	mine := s.ColL.MyRange().Contains(int(src))
	fc := dvec.Reuse(r.col, s.ColL, 0)
	if mine {
		fc.Append(int(src), semiring.Self(src))
	}
	if r.searchPhase(fc, true) == 0 && mine {
		// The source is unmatchable now, hence forever: retire it.
		r.retired.SetAt(int(src), 1)
	}
	return false
}
