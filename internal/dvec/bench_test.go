package dvec

// Micro-benchmarks for the Table I primitives, run on a 2x2 simulated grid
// with vectors of 2^16 elements — the per-primitive costs behind
// bench_test.go's table/figure benchmarks.

import (
	"testing"

	"mcmdist/internal/grid"
	"mcmdist/internal/mpi"
	"mcmdist/internal/semiring"
)

const benchN = 1 << 16

// benchOnGrid runs one benchmark body per rank on a 2x2 grid, once per
// b.N iteration.
func benchOnGrid(b *testing.B, fn func(g *grid.Grid, i int)) {
	b.Helper()
	_, err := mpi.Run(4, func(c *mpi.Comm) error {
		g, err := grid.New(c, 2, 2)
		if err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			fn(g, i)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func benchSparse(g *grid.Grid, stride int) *SparseV {
	l := NewLayout(g, benchN, ColAligned)
	s := NewSparseV(l)
	r := l.MyRange()
	for gi := r.Lo; gi < r.Hi; gi += stride {
		s.Append(gi, semiring.Self(int64(gi)))
	}
	return s
}

func BenchmarkTableISelect(b *testing.B) {
	benchOnGrid(b, func(g *grid.Grid, _ int) {
		s := benchSparse(g, 3)
		d := NewDense(s.L, semiring.None)
		s.Select(d, func(v int64) bool { return v == semiring.None })
	})
}

func BenchmarkTableISet(b *testing.B) {
	benchOnGrid(b, func(g *grid.Grid, _ int) {
		s := benchSparse(g, 3)
		d := NewDense(s.L, semiring.None)
		d.ScatterParents(s)
	})
}

func BenchmarkTableIInvert(b *testing.B) {
	benchOnGrid(b, func(g *grid.Grid, _ int) {
		s := benchSparse(g, 3)
		s.InvertParents(NewLayout(g, benchN, RowAligned))
	})
}

func BenchmarkTableIPrune(b *testing.B) {
	benchOnGrid(b, func(g *grid.Grid, _ int) {
		s := benchSparse(g, 3)
		roots := make([]int64, 0, 64)
		r := s.L.MyRange()
		for gi := r.Lo; gi < r.Hi && len(roots) < 64; gi += 97 {
			roots = append(roots, int64(gi))
		}
		s.PruneRoots(roots)
	})
}

func BenchmarkDenseGather(b *testing.B) {
	benchOnGrid(b, func(g *grid.Grid, _ int) {
		d := NewDense(NewLayout(g, benchN, ColAligned), 7)
		d.Gather()
	})
}

// BenchmarkTableIPrimitiveAllocs measures steady-state allocations of the
// communicating Table I primitives (SELECT, INVERT, PRUNE) per iteration on
// a fixed frontier — the per-level allocation cost of Algorithm 2's
// bookkeeping steps. EXPERIMENTS.md records the before/after numbers for
// the runtime-context buffer-reuse refactor.
func BenchmarkTableIPrimitiveAllocs(b *testing.B) {
	b.ReportAllocs()
	_, err := mpi.Run(4, func(c *mpi.Comm) error {
		g, err := grid.New(c, 2, 2)
		if err != nil {
			return err
		}
		s := benchSparse(g, 3)
		d := NewDense(s.L, semiring.None)
		rowL := NewLayout(g, benchN, RowAligned)
		roots := make([]int64, 0, 64)
		r := s.L.MyRange()
		for gi := r.Lo; gi < r.Hi && len(roots) < 64; gi += 97 {
			roots = append(roots, int64(gi))
		}
		for i := 0; i < b.N; i++ {
			s.Select(d, func(v int64) bool { return v == semiring.None })
			s.InvertParents(rowL)
			s.PruneRoots(roots)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
