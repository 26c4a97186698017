package experiments

import (
	"fmt"
	"io"

	"mcmdist/internal/dvec"
	"mcmdist/internal/grid"
	"mcmdist/internal/mpi"
	"mcmdist/internal/rmat"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
	"mcmdist/internal/spmv"
)

// GridShapeRow reports the communication cost of one frontier SpMV on one
// process-grid shape.
type GridShapeRow struct {
	PR, PC   int
	MaxWords int64 // per-rank maximum words moved
	MaxMsgs  int64 // per-rank maximum messages
}

// GridShapeAblation compares process-grid shapes for the SpMV that
// dominates MCM-DIST: a 1 x p grid (1D column distribution), a p x 1 grid
// (1D row distribution), and the square sqrt(p) x sqrt(p) grid the paper
// uses. The classic 2D SpMV result — and the reason CombBLAS distributes
// 2D — is that the square grid's per-rank communication volume scales as
// n/sqrt(p) while either 1D shape moves O(n) per rank.
func GridShapeAblation(w io.Writer, scale, procs int) []GridShapeRow {
	a := rmat.MustGenerate(rmat.ER, scale, 8, 33)
	side := grid.Square(procs)
	procs = side * side
	shapes := [][2]int{{1, procs}, {procs, 1}, {side, side}}

	var rows []GridShapeRow
	for _, sh := range shapes {
		pr, pc := sh[0], sh[1]
		blocks := spmat.Distribute2D(a, pr, pc)
		world, err := mpi.Run(pr*pc, func(c *mpi.Comm) error {
			g, err := grid.New(c, pr, pc)
			if err != nil {
				return err
			}
			xl := dvec.NewLayout(g, a.NCols, dvec.ColAligned)
			yl := dvec.NewLayout(g, a.NRows, dvec.RowAligned)
			fx := dvec.NewSparseV(xl)
			r := xl.MyRange()
			for gi := r.Lo; gi < r.Hi; gi++ {
				fx.Append(gi, semiring.Self(int64(gi)))
			}
			spmv.Mul(blocks[g.MyRow][g.MyCol], fx, semiring.MinParent, yl, nil)
			return nil
		})
		if err != nil {
			panic(err)
		}
		m := world.MaxMeter()
		rows = append(rows, GridShapeRow{PR: pr, PC: pc, MaxWords: m.Words, MaxMsgs: m.Msgs})
	}
	tw := newTab(w)
	fmt.Fprintf(tw, "Grid shape (p=%d, full-frontier SpMV)\tmax words/rank\tmax msgs/rank\n", procs)
	for _, r := range rows {
		fmt.Fprintf(tw, "%dx%d\t%d\t%d\n", r.PR, r.PC, r.MaxWords, r.MaxMsgs)
	}
	tw.Flush()
	return rows
}
