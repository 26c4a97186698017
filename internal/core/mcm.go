package core

import (
	"mcmdist/internal/dvec"
	"mcmdist/internal/mpi"
)

// startFrontierCount begins the split-phase allreduce that sizes the next
// column frontier. The solver loops start it the moment a frontier is
// produced and consume it at the top of the next iteration, so the
// reduction's latency hides behind the bookkeeping in between (and, for the
// phase-final frontier, behind nothing — the request is simply waited).
// With overlap disabled it returns nil and the loop-top check falls back to
// the blocking fc.Nnz(); the meters are identical either way because a
// split-phase collective meters at completion, inside the same tracked
// loop-top section where the blocking allreduce would run.
func (s *Solver) startFrontierCount(fc *dvec.SparseV) *mpi.ValueRequest {
	if !s.G.RT.Overlap() {
		return nil
	}
	return s.G.World.IAllreduce(mpi.OpSum, int64(fc.LocalNnz()))
}

// waitFrontierCount resolves a loop-top frontier size: the pipelined
// request when one is in flight, the blocking collective otherwise.
func (s *Solver) waitFrontierCount(rq *mpi.ValueRequest, fc *dvec.SparseV) int {
	if rq != nil {
		return int(rq.Wait())
	}
	return fc.Nnz()
}
