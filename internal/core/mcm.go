package core

import (
	"mcmdist/internal/dvec"
	"mcmdist/internal/mpi"
)

// startFrontierCount begins the split-phase allreduce that sizes the next
// column frontier. The solver loops start it the moment a frontier is
// produced and wait on it at the top of the next iteration, so the
// reduction's latency hides behind the bookkeeping in between (and, for the
// phase-final frontier, behind nothing — the request is simply waited). A
// split-phase collective meters at completion, so the count is metered
// inside the tracked loop-top section.
func (s *Solver) startFrontierCount(fc *dvec.SparseV) *mpi.Pending[int64] {
	return s.G.World.IAllreduce(mpi.OpSum, int64(fc.LocalNnz()))
}
