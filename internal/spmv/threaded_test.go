package spmv

import (
	"math/rand"
	"testing"

	"mcmdist/internal/dvec"
	"mcmdist/internal/grid"
	"mcmdist/internal/mpi"
	"mcmdist/internal/rmat"
	"mcmdist/internal/rt"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

// runMulThreads executes the distributed Mul with a worker pool of the given
// size on every rank and returns the gathered result.
func runMulThreads(t *testing.T, a *spmat.CSC, op semiring.AddOp, pr, pc, threads int) []semiring.Vertex {
	t.Helper()
	blocks := spmat.Distribute2D(a, pr, pc)
	var result []semiring.Vertex
	_, err := mpi.Run(pr*pc, func(c *mpi.Comm) error {
		ctx := rt.New(c)
		ctx.EnsureThreads(threads)
		defer ctx.Close()
		g, err := grid.NewWithRT(c, pr, pc, ctx)
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
		y := Mul(blocks[g.MyRow][g.MyCol], fx, op, yl, nil)
		full := y.GatherVertices(true)
		if c.Rank() == 0 {
			result = full
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return result
}

// TestMulThreadedBitIdentical drives the sharded local multiply and the
// shard merge with a full frontier (large enough to clear the multGrain
// clamp) and checks the result is bit-identical across pool sizes. The
// semiring Combine is associative with deterministic tie-breaks, so
// regrouping by chunks must not change a single bit.
func TestMulThreadedBitIdentical(t *testing.T) {
	a := rmat.MustGenerate(rmat.G500, 12, 16, 7)
	for _, op := range []semiring.AddOp{semiring.MinParent, semiring.RandParent} {
		for _, shape := range [][2]int{{1, 1}, {2, 2}} {
			base := runMulThreads(t, a, op, shape[0], shape[1], 1)
			for _, threads := range []int{2, 4, 8} {
				got := runMulThreads(t, a, op, shape[0], shape[1], threads)
				for i := range base {
					if got[i] != base[i] {
						t.Fatalf("op=%v grid=%v threads=%d: row %d = %v, want %v",
							op, shape, threads, i, got[i], base[i])
					}
				}
			}
		}
	}
}

// TestMergeShardsUnalignedBands merges shards over a row count whose pool
// bands (0, 333, 666, 1000 at three threads) do not fall on multiples of
// 64, so the rounded band edges decide which worker sets each presence word
// of shard 0. The result must equal the serial combine; under -race this is
// also the data-race guard for the shared presence words.
func TestMergeShardsUnalignedBands(t *testing.T) {
	const rows = 1000
	ctx := rt.New(nil)
	ctx.EnsureThreads(3)
	defer ctx.Close()
	if w := ctx.Pool().Width(rows, 256); w != 3 {
		t.Fatalf("pool width %d, want 3 bands", w)
	}
	rng := rand.New(rand.NewSource(5))
	shards := ctx.ScratchShards("merge.test", 3, rows)
	want := make(map[int]semiring.Vertex)
	for _, sh := range shards {
		for r := 0; r < rows; r++ {
			if rng.Intn(3) != 0 {
				continue
			}
			v := semiring.Vertex{Parent: int64(rng.Intn(100)), Root: int64(rng.Intn(100))}
			sh.Set(r, v)
			if old, ok := want[r]; ok {
				v = semiring.MinParent.Combine(old, v)
			}
			want[r] = v
		}
	}
	mergeShards(ctx.Pool(), shards, semiring.MinParent, rows)
	got := 0
	for r := shards[0].Next(0); r < rows; r = shards[0].Next(r + 1) {
		if w, ok := want[r]; !ok || shards[0].Val[r] != w {
			t.Fatalf("row %d = %v, want %v (present %v)", r, shards[0].Val[r], w, ok)
		}
		got++
	}
	if got != len(want) {
		t.Fatalf("merged %d rows, want %d", got, len(want))
	}
}
