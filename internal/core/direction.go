package core

import (
	"mcmdist/internal/costmodel"
	"mcmdist/internal/dvec"
	"mcmdist/internal/mpi"
	"mcmdist/internal/spmv"
)

// pullEdgeFactor is the Beamer-style edge-count condition: pull is only
// considered when the frontier's outgoing edges outnumber the unvisited
// rows by this factor, so rows scanning for a parent mostly hit early.
const pullEdgeFactor = 14

// dirState carries the adaptive direction choice's state across the
// iterations of one solver entry point. Every field is SPMD-replicated —
// the per-iteration decision must be identical on all ranks, because push
// and pull issue different collective sequences.
type dirState struct {
	// pullDisabled turns off the bottom-up direction once a pull scan
	// proves unproductive. It is sticky across phases: unproductive scans
	// come from frontier columns that are structurally deficient (no
	// augmenting path will ever leave them), and that set only grows as
	// the matching converges.
	pullDisabled bool
	// visitedRows counts rows discovered so far in the current phase; the
	// heuristic compares it against the frontier's edge reach.
	visitedRows int
	// threshold is the resolved pull frontier-fraction threshold, the
	// alpha-beta model's crossover. Zero means not yet resolved.
	threshold float64
}

// resetPhase clears the per-phase discovery count (pullDisabled is sticky).
func (d *dirState) resetPhase() { d.visitedRows = 0 }

// adaptiveDirection reports whether the per-iteration heuristic is live —
// the case that needs visited-row tracking and scan-productivity feedback.
func (s *Solver) adaptiveDirection() bool {
	return s.Cfg.Direction == DirectionAuto
}

// chooseDirection decides the SpMV direction for one iteration: true means
// bottom-up (spmv.MulPull), false top-down (spmv.Mul). A pinned
// Config.Direction short-circuits the heuristic so tests can hold either
// kernel deterministically; otherwise the choice is Beamer-style — pull when
// the frontier exceeds the threshold fraction of the columns AND its
// outgoing edges outnumber the unvisited rows' by pullEdgeFactor. Collective
// on the first adaptive call (it sizes the global nnz for the modeled
// crossover threshold); pure local arithmetic afterwards.
func (s *Solver) chooseDirection(d *dirState, frontierSize int) bool {
	switch s.Cfg.Direction {
	case DirectionPush:
		return false
	case DirectionPull:
		return true
	}
	if !s.adaptiveDirection() || d.pullDisabled {
		return false
	}
	if d.threshold == 0 {
		d.threshold = s.resolveThreshold()
	}
	unvisited := s.N1 - d.visitedRows
	return float64(frontierSize) > d.threshold*float64(s.N2) &&
		pullEdgeFactor*frontierSize > unvisited
}

// resolveThreshold picks the pull frontier-fraction threshold: the
// alpha-beta cost model's push/pull crossover for the host machine at this
// run's thread count and the graph's average degree. The degree comes from a
// one-time allreduce of the local block sizes (collective — every rank
// resolves together), so the threshold is bit-identical on every rank.
func (s *Solver) resolveThreshold() float64 {
	nnz := s.G.World.Allreduce(mpi.OpSum, int64(s.A.M.NNZ()))
	avgDeg := float64(nnz) / float64(max(s.N2, 1))
	return costmodel.PullCrossover(costmodel.Laptop, s.Cfg.Threads, avgDeg)
}

// noteDiscovered folds one iteration's newly discovered rows into the
// heuristic state (the same frontier-size bookkeeping real
// direction-optimizing BFS implementations perform each level).
func (d *dirState) noteDiscovered(n int) { d.visitedRows += n }

// notePullScan applies the hit-rate feedback after a pull iteration:
// matching frontiers can be full of structurally deficient columns whose
// neighborhoods never hit; if the global scan productivity drops below 1/4,
// fall back to push for the rest of the solve. Collective: one reduction
// of {scanned, hits}. A pinned DirectionPull skips the feedback — the
// caller asked for pull unconditionally.
func (s *Solver) notePullScan(d *dirState, ps spmv.PullStats) {
	if s.Cfg.Direction == DirectionPull {
		return
	}
	n := s.G.World.AllreduceN(mpi.OpSum, []int64{int64(ps.Scanned), int64(ps.Hits)})
	if scanned, hits := n[0], n[1]; scanned > 0 && hits*4 < scanned {
		d.pullDisabled = true
	}
}

// mulDirected runs one SpMV in the chosen direction, maintaining the lazy
// row-major adjacency and the per-direction iteration counters — the single
// selection site both MS-BFS engines flow through. The row frontier is
// written into dst.
func (s *Solver) mulDirected(usePull bool, d *dirState, fc *dvec.SparseV, visited *dvec.Dense, dst *dvec.SparseV) *dvec.SparseV {
	if usePull {
		if s.rowAdj == nil {
			s.rowAdj = spmv.RowMajor(s.A, s.G.RT)
		}
		fr, ps := spmv.MulPull(s.A, s.rowAdj, fc, visited, s.Cfg.AddOp, s.RowL, dst)
		s.Stats.PullIterations++
		s.notePullScan(d, ps)
		return fr
	}
	fr := spmv.Mul(s.A, fc, s.Cfg.AddOp, s.RowL, dst)
	s.Stats.PushIterations++
	return fr
}
