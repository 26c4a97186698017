package spmv

// Allocation benchmark for the SpMV hot path: one collective Mul across a
// 2x2 grid per iteration, frontier fixed, so allocs/op is the steady-state
// per-level allocation cost of the expand / local-multiply / fold pipeline.
// Each call writes into the previous call's result, as a solver level
// refills its dead row frontier. EXPERIMENTS.md records the before/after
// numbers for the runtime-context buffer-reuse refactor.

import (
	"testing"

	"mcmdist/internal/dvec"
	"mcmdist/internal/grid"
	"mcmdist/internal/mpi"
	"mcmdist/internal/rmat"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

func BenchmarkSpMVAllocs(b *testing.B) {
	a := rmat.MustGenerate(rmat.G500, 12, 16, 1)
	blocks := spmat.Distribute2D(a, 2, 2)
	b.ReportAllocs()
	b.ResetTimer()
	_, err := mpi.Run(4, func(c *mpi.Comm) error {
		g, err := grid.New(c, 2, 2)
		if err != nil {
			return err
		}
		local := blocks[g.MyRow][g.MyCol]
		xl := dvec.NewLayout(g, a.NCols, dvec.ColAligned)
		yl := dvec.NewLayout(g, a.NRows, dvec.RowAligned)
		fx := dvec.NewSparseV(xl)
		r := xl.MyRange()
		for gi := r.Lo; gi < r.Hi; gi += 3 {
			fx.Append(gi, semiring.Self(int64(gi)))
		}
		var y *dvec.SparseV
		for i := 0; i < b.N; i++ {
			y = Mul(local, fx, semiring.MinParent, yl, y)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpMVPullAllocs is the same measurement for the bottom-up
// direction (MulPull), whose dense frontier/visited lookups are the other
// per-level scratch consumers.
func BenchmarkSpMVPullAllocs(b *testing.B) {
	a := rmat.MustGenerate(rmat.G500, 12, 16, 1)
	blocks := spmat.Distribute2D(a, 2, 2)
	b.ReportAllocs()
	b.ResetTimer()
	_, err := mpi.Run(4, func(c *mpi.Comm) error {
		g, err := grid.New(c, 2, 2)
		if err != nil {
			return err
		}
		local := blocks[g.MyRow][g.MyCol]
		rowAdj := RowMajor(local, g.RT)
		xl := dvec.NewLayout(g, a.NCols, dvec.ColAligned)
		yl := dvec.NewLayout(g, a.NRows, dvec.RowAligned)
		fx := dvec.NewSparseV(xl)
		r := xl.MyRange()
		for gi := r.Lo; gi < r.Hi; gi += 3 {
			fx.Append(gi, semiring.Self(int64(gi)))
		}
		vis := dvec.HoldDense(yl, semiring.None)
		var y *dvec.SparseV
		for i := 0; i < b.N; i++ {
			y, _ = MulPull(local, rowAdj, fx, vis, semiring.MinParent, yl, y)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
