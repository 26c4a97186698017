package core

import (
	"mcmdist/internal/dvec"
	"mcmdist/internal/mpi"
	"mcmdist/internal/obs"
	"mcmdist/internal/semiring"
)

// This file holds the three MS-BFS engines behind the Engine seam. They run
// one copy of Algorithm 2's phase (searchPhase: the level-synchronous search
// and the augmentation by the paths it found); each engine keeps only its
// policy — where a phase starts, which rows count as visited, and what
// survives the phase. Each Iterate() executes exactly one phase; the
// direction × compression × backend × threads sweep tests pin that every
// trajectory is bit-identical. The engines live in core rather than
// internal/engine because their phase kernels are core's private
// SpMV/select/augment machinery and because core's own in-package tests
// drive them through Solve; internal/engine hosts the external plug-ins
// (docs/ENGINES.md discusses the trade-off).

func init() {
	RegisterEngine(bfsEngine{})
	RegisterEngine(bfsSSEngine{})
	RegisterEngine(bfsGraftEngine{})
}

// msbfs is the state the three BFS engines carry across the phases of one
// solve.
type msbfs struct {
	s            *Solver
	mater, matec *dvec.Dense
	// The level buffers, owned by the run rather than the rt arena: a
	// vector the level has finished with lends its storage to the next
	// output. col holds the column frontier f_c, dead once the SpMV returns
	// and refilled by the next INVERT; row holds the row frontier f_r, dead
	// once that INVERT returns and refilled by the next SpMV. ufr and tc
	// hold each level's path endpoints, row- and col-aligned.
	col, row, ufr, tc *dvec.SparseV
	// pathc maps each root column to the unmatched row ending its path
	// (path_c); each phase refills it with None.
	pathc *dvec.Dense
	// dir carries the adaptive direction choice (see direction.go): the
	// sticky pull-disable, the discovered-row count, and the resolved
	// switch threshold.
	dir dirState
	// phase numbers the searches started, empty ones included. It labels
	// the phase spans, the iteration time-series and Config.OnIteration.
	phase int
}

func newMSBFS(s *Solver, mater, matec *dvec.Dense) msbfs {
	return msbfs{
		s: s, mater: mater, matec: matec,
		col: dvec.NewSparseV(s.ColL), row: dvec.NewSparseV(s.RowL),
		ufr: dvec.NewSparseV(s.RowL), tc: dvec.NewSparseV(s.ColL),
		pathc: dvec.NewDense(s.ColL, semiring.None),
	}
}

// phaseSearch is what one phase's search varies between the engines.
type phaseSearch struct {
	pir *dvec.Dense // parents of visited rows (π_r)
	// visited holds the rows a level may not claim: pir itself, or the
	// tree-ownership vector when grafting (rows owned by any tree, from
	// this phase or an earlier one).
	visited *dvec.Dense
	// roots, when non-nil, records the tree that claims each row (grafting).
	roots *dvec.Dense
	// firstPath ends the search at the first level that finds a path (the
	// single-source engine: its one tree has nothing left to prune).
	firstPath bool
}

// openPhase numbers the next search and opens its phase span; the returned
// function closes the span.
func (r *msbfs) openPhase() func() {
	r.phase++
	trc := r.s.G.RT.Tracer()
	phase, t0 := r.phase, trc.Begin()
	return func() { trc.End(obs.KindPhase, "phase", t0, int64(phase)) }
}

// unmatchedFrontier seeds a phase from every unmatched column (Algorithm 2,
// lines 6-8), in the column frontier's storage.
func (r *msbfs) unmatchedFrontier() *dvec.SparseV {
	var fc *dvec.SparseV
	r.s.tr.track(OpOther, func() { fc = r.s.unmatchedColFrontier(r.matec, r.col) })
	return fc
}

// searchPhase runs one phase of Algorithm 2: grow alternating trees level by
// level from the column frontier fc (Steps 1-7 per level), then augment by
// every vertex-disjoint path found (Step 8) and take the phase-boundary
// checkpoint. fc is r.col, and every level's vectors live in the run's
// level buffers. Returns the number of paths augmented; 0 means no
// augmenting path leaves fc. Collective.
func (r *msbfs) searchPhase(p *phaseSearch, fc *dvec.SparseV) int {
	s := r.s
	mater := r.mater
	r.pathc.Fill(semiring.None)
	var fcCount *mpi.ValueRequest
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
			fr = s.mulDirected(usePull, &r.dir, fc, p.visited, r.row)
		})

		// Steps 2-4: unvisited rows; record parents (and, grafting, the
		// claiming tree); split into unmatched (path endpoints) and
		// matched rows.
		ufr := r.ufr
		s.tr.track(OpSelect, func() {
			fr.Select(p.visited, unset)
			p.pir.ScatterParents(fr)
			if p.roots != nil {
				p.roots.ScatterRoots(fr)
			}
			fr.Split(mater, unset, ufr)
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
			stop = p.firstPath

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
		s.augment(r.pathc, p.pir, mater, r.matec, paths)
	})
	s.maybeCheckpoint(s.Stats.Phases, mater, r.matec)
	return paths
}

// unset is the SELECT predicate of a missing dense entry: an unvisited row
// against π_r, an unmatched one against mate_r.
func unset(v int64) bool { return v == semiring.None }

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
	return &bfsRun{newMSBFS(s, mater, matec), dvec.NewDense(s.RowL, semiring.None)}
}

type bfsRun struct {
	msbfs
	pir *dvec.Dense // π_r, refilled with None by every phase
}

// Iterate runs one MS-BFS phase from every unmatched column with its
// parents reset to None. Returns done when a phase discovers no path (the
// matching is maximum).
func (r *bfsRun) Iterate() (bool, error) {
	defer r.openPhase()()
	r.dir.resetPhase()
	r.pir.Fill(semiring.None)
	return r.searchPhase(&phaseSearch{pir: r.pir, visited: r.pir}, r.unmatchedFrontier()) == 0, nil
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
		msbfs: newMSBFS(s, mater, matec),
		pir:   dvec.NewDense(s.RowL, semiring.None),
		// retired marks columns proven unmatchable: once no augmenting path
		// leaves a vertex, none ever will again (augmentations only grow the
		// reachable matching), so retirement is permanent.
		retired: dvec.NewDense(s.ColL, 0),
	}
}

type bfsSSRun struct {
	msbfs
	pir     *dvec.Dense // π_r, refilled with None by every phase
	retired *dvec.Dense
}

// Iterate runs one single-source phase: pick the globally smallest
// unmatched, unretired column, search until the first augmenting path, and
// apply it (or retire the source). Returns done when no source remains.
func (r *bfsSSRun) Iterate() (bool, error) {
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
		return true, nil // every unmatched column is retired: maximum reached
	}
	defer r.openPhase()()
	r.dir.resetPhase()
	mine := s.ColL.MyRange().Contains(int(src))
	fc := dvec.Reuse(r.col, s.ColL, 0)
	if mine {
		fc.Append(int(src), semiring.Self(src))
	}
	r.pir.Fill(semiring.None)
	if r.searchPhase(&phaseSearch{pir: r.pir, visited: r.pir, firstPath: true}, fc) == 0 && mine {
		// The source is unmatchable now, hence forever: retire it.
		r.retired.SetAt(int(src), 1)
	}
	return false, nil
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
		msbfs: newMSBFS(s, mater, matec),
		// Persistent across phases: parents of visited rows and the root of
		// the alternating tree owning each row (None = unowned).
		pir:   dvec.NewDense(s.RowL, semiring.None),
		rootR: dvec.NewDense(s.RowL, semiring.None),
	}
}

// bfsGraftRun's dir mirrors rootR's lifetime, not the phase's: tree
// ownership persists across grafted phases, so the discovered-row count
// feeding the heuristic only resets when the trees do.
type bfsGraftRun struct {
	msbfs
	pir, rootR *dvec.Dense
	fresh      bool // true while running the full-reset verification phase
}

// Iterate runs one grafted sweep. An empty grafted sweep triggers the
// full-reset verification phase; only an empty fresh sweep reports done.
func (r *bfsGraftRun) Iterate() (bool, error) {
	s := r.s
	pir, rootR := r.pir, r.rootR
	defer r.openPhase()()
	// Grafting filter: skip rows owned by ANY tree, from this phase or an
	// earlier one. Fresh rows are claimed for the discovering tree
	// (ownership recorded in rootR, parents in pi_r).
	p := &phaseSearch{pir: pir, visited: rootR, roots: rootR}
	if r.searchPhase(p, r.unmatchedFrontier()) == 0 {
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

	// Release the augmented (dead) trees: their vertices become
	// graftable. Dead roots are the pathc entries; every rank gathers
	// the full set (the same allgather pattern as PRUNE) and scans its
	// local pieces.
	s.tr.track(OpOther, func() {
		var local []int64
		lo := s.ColL.MyRange().Lo
		for i, end := range r.pathc.Local {
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
	return false, nil
}
