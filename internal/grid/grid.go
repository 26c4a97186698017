// Package grid builds the 2D process grid CombBLAS distributes its matrices
// on (paper Section IV-A): p ranks arranged as pr x pc, with row and column
// sub-communicators for the expand and fold phases of the 2D SpMV.
package grid

import (
	"fmt"
	"math"

	"mcmdist/internal/mpi"
	"mcmdist/internal/rt"
)

// Grid is one rank's view of a 2D process grid. It also carries the rank's
// runtime context: the grid is the object every distributed layer (dvec
// layouts, spmv, core) already holds, so riding RT on it threads one
// per-rank arena through the whole stack without changing primitive
// signatures.
type Grid struct {
	World *mpi.Comm // the full communicator the grid was built on
	Row   *mpi.Comm // this rank's row communicator P(i, :), size pc
	Col   *mpi.Comm // this rank's column communicator P(:, j), size pr
	RT    *rt.Ctx   // this rank's runtime context (arena, scratch, ledger)
	PR    int       // grid rows
	PC    int       // grid columns
	MyRow int       // this rank's grid row i
	MyCol int       // this rank's grid column j
}

// Square returns the side of the largest square grid with at most p ranks,
// mirroring the paper's square-grid-only configuration. 0 for p <= 0.
func Square(p int) int {
	if p <= 0 {
		return 0
	}
	s := int(math.Sqrt(float64(p)))
	for (s+1)*(s+1) <= p {
		s++
	}
	for s*s > p {
		s--
	}
	return s
}

// New arranges the communicator as a pr x pc grid in row-major rank order.
// pr*pc must equal the communicator size. Rank r sits at (r/pc, r%pc). A
// fresh enabled runtime context is created for the rank; use NewWithRT to
// supply one (e.g. a context reused from a previous solve, or a disabled
// one for pooling-off runs).
func New(c *mpi.Comm, pr, pc int) (*Grid, error) {
	return NewWithRT(c, pr, pc, rt.New(c))
}

// NewWithRT is New with a caller-supplied runtime context, which is rebound
// to this communicator. A nil context is allowed and leaves every arena
// operation in pass-through mode.
func NewWithRT(c *mpi.Comm, pr, pc int, ctx *rt.Ctx) (*Grid, error) {
	if pr <= 0 || pc <= 0 || pr*pc != c.Size() {
		return nil, fmt.Errorf("grid: %dx%d grid does not tile %d ranks", pr, pc, c.Size())
	}
	ctx.Bind(c)
	myRow := c.Rank() / pc
	myCol := c.Rank() % pc
	row := c.Split(myRow, myCol)
	col := c.Split(myCol+pr*pc, myRow) // offset colors so debugging ids differ
	return &Grid{
		World: c,
		Row:   row,
		Col:   col,
		RT:    ctx,
		PR:    pr,
		PC:    pc,
		MyRow: myRow,
		MyCol: myCol,
	}, nil
}

// RankAt returns the world-communicator rank of grid position (i, j).
func (g *Grid) RankAt(i, j int) int { return i*g.PC + j }
