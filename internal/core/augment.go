package core

import (
	"mcmdist/internal/dvec"
	"mcmdist/internal/mpi"
	"mcmdist/internal/semiring"
)

// augment applies the k vertex-disjoint augmenting paths recorded in pathc
// (root column -> unmatched end row) by flipping matched and unmatched
// edges along each path. It dispatches between the two variants of Section
// IV-B: the bulk-synchronous level-parallel Algorithm 3 and the one-sided
// path-parallel Algorithm 4, switching automatically at k < 2p² under
// AugmentAuto. lv holds the level-parallel variant's vectors. Collective.
func (s *Solver) augment(pathc, pir, mater, matec *dvec.Dense, k int, lv *levelVecs) {
	p := s.G.World.Size()
	mode := s.Cfg.Augment
	if mode == AugmentAuto {
		if k < 2*p*p {
			mode = AugmentPathParallel
		} else {
			mode = AugmentLevelParallel
		}
	}
	if mode == AugmentPathParallel {
		s.Stats.PathParallelAugments++
		s.augmentPathParallel(pathc, pir, mater, matec)
	} else {
		s.Stats.LevelParallelAugments++
		s.augmentLevelParallel(pathc, pir, mater, matec, lv)
	}
}

// levelVecs are the sparse vectors of Algorithm 3, held for the solve: the
// row fronts of the current level, and the parent columns and their
// previous mates it finds.
type levelVecs struct {
	fronts, jc, old *dvec.SparseInt
}

// holdLevelVecs holds Algorithm 3's vectors for the solve; a run that
// never augments level-parallel leaves them empty.
func (s *Solver) holdLevelVecs() levelVecs {
	return levelVecs{
		fronts: dvec.HoldSparseInt(s.RowL),
		jc:     dvec.HoldSparseInt(s.ColL),
		old:    dvec.HoldSparseInt(s.ColL),
	}
}

// augmentLevelParallel is Algorithm 3: all paths advance together, two
// matched edges per level-synchronous iteration, expressed entirely with
// INVERT and SET. Each iteration costs two personalized all-to-alls, which
// is why its latency term grows as alpha*p*h for path length h. Every
// vector of a level refills one of lv's, each dead by then.
func (s *Solver) augmentLevelParallel(pathc, pir, mater, matec *dvec.Dense, lv *levelVecs) {
	matched := func(v int64) bool { return v != semiring.None }
	// v_c: sparse vector from path_c by removing -1 entries (line 2); then
	// flip to the unmatched end rows, where augmentation starts.
	vc := pathc.SparseWhere(matched, lv.old)
	fronts := vc.Invert(s.RowL, lv.fronts) // fronts[end row] = root column

	for fronts.Nnz() > 0 {
		// Row fronts adopt their parents (SET with pi_r), in place...
		parents := fronts
		parents.GatherFrom(pir)
		// ...and flip to those parent columns (INVERT): jc[j] = front row.
		jc := parents.Invert(s.ColL, lv.jc)
		// Remember the parent columns' previous mates (SET with mate_c)
		// before overwriting them: they are the next level's fronts.
		oldMates := jc.Clone(lv.old)
		oldMates.GatherFrom(matec)
		// Update both mate vectors (lines 8-9).
		matec.Scatter(jc)
		mater.Scatter(parents)
		// Paths whose parent column was the (unmatched) root are finished.
		fronts = oldMates.Filter(matched, oldMates).Invert(s.RowL, parents)
	}
}

// augmentPathParallel is Algorithm 4: each rank walks the paths whose
// endpoint record it owns, asynchronously editing the remote mate vectors
// with one-sided operations — one MPI_GET (parent lookup), one MPI_PUT
// (mate_r update) and one MPI_FETCH_AND_OP (atomic mate_c swap that also
// returns the previous mate) per matched pair, the 3-RMA-calls-per-
// iteration cost of Section IV-B.
func (s *Solver) augmentPathParallel(pathc, pir, mater, matec *dvec.Dense) {
	winPir := mpi.WinCreate(s.G.World, pir.Local)
	winMater := mpi.WinCreate(s.G.World, mater.Local)
	winMatec := mpi.WinCreate(s.G.World, matec.Local)

	for _, end := range pathc.Local {
		if end == semiring.None {
			continue
		}
		r := end
		for {
			rRank, rOff := s.RowL.Owner(int(r))
			j := winPir.Get1(rRank, rOff)
			winMater.Put1(rRank, rOff, j)
			jRank, jOff := s.ColL.Owner(int(j))
			prev := winMatec.FetchAndOp(jRank, jOff, mpi.OpReplace, r)
			if prev == semiring.None {
				break // reached the root column
			}
			r = prev
		}
	}
	// Close the RMA epoch: all one-sided updates visible everywhere.
	winMatec.Fence()
}
