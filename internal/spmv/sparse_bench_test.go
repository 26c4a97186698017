package spmv

// Kernel benchmark for the high-diameter regime: a one-column frontier
// multiplied into blocks of growing row count on a 1x1 grid, so the
// collectives are trivial and ns/op is the local multiply plus the fold's
// walk over the touched rows. The walk costs a word per 64 rows plus the
// rows touched, so ns/op should stay nearly flat as the block grows.
// EXPERIMENTS.md records the numbers.

import (
	"fmt"
	"testing"

	"mcmdist/internal/dvec"
	"mcmdist/internal/grid"
	"mcmdist/internal/mpi"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

func BenchmarkMulSparseFrontier(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 16, 1 << 18} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			// Two nonzeros per column: the diagonal and one scattered row.
			coo := spmat.NewCOO(n, n)
			for j := 0; j < n; j++ {
				coo.Add(j, j)
				coo.Add((7*j+1)%n, j)
			}
			local := spmat.Distribute2D(coo.ToCSC(), 1, 1)[0][0]
			b.ReportAllocs()
			b.ResetTimer()
			_, err := mpi.Run(1, func(c *mpi.Comm) error {
				g, err := grid.New(c, 1, 1)
				if err != nil {
					return err
				}
				xl := dvec.NewLayout(g, n, dvec.ColAligned)
				yl := dvec.NewLayout(g, n, dvec.RowAligned)
				fx := dvec.NewSparseV(xl)
				fx.Append(n/2, semiring.Self(int64(n/2)))
				for i := 0; i < b.N; i++ {
					if y := Mul(local, fx, semiring.MinParent, yl, nil); y.LocalNnz() != 2 {
						return fmt.Errorf("frontier reached %d rows, want 2", y.LocalNnz())
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
