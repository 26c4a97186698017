package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

// poolFor runs Pool.For over a fresh pool of the given width.
func poolFor(n, threads int, fn func(lo, hi int)) {
	p := NewPool(threads)
	defer p.Close()
	p.For(n, fn)
}

// poolMapReduce runs Pool.MapReduce over a fresh pool of the given width.
func poolMapReduce(n, threads int, fn func(lo, hi int) int64, combine func(a, b int64) int64) int64 {
	p := NewPool(threads)
	defer p.Close()
	return p.MapReduce(n, fn, combine)
}

func TestForCoversRangeExactly(t *testing.T) {
	f := func(n uint16, threads uint8) bool {
		nn := int(n)
		tt := int(threads%16) + 1
		seen := make([]int32, nn)
		poolFor(nn, tt, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	poolFor(0, 4, func(lo, hi int) { called = true })
	if called {
		t.Fatal("fn called for n=0")
	}
	poolFor(-3, 4, func(lo, hi int) { called = true })
	if called {
		t.Fatal("fn called for negative n")
	}
}

func TestForSingleThreadInline(t *testing.T) {
	calls := 0
	poolFor(1000, 1, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 1000 {
			t.Fatalf("inline chunk [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("%d calls, want 1", calls)
	}
}

func TestForLargeParallelSum(t *testing.T) {
	const n = 100_000
	var sum atomic.Int64
	poolFor(n, 8, func(lo, hi int) {
		var local int64
		for i := lo; i < hi; i++ {
			local += int64(i)
		}
		sum.Add(local)
	})
	want := int64(n) * (n - 1) / 2
	if sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestMapReduceSum(t *testing.T) {
	const n = 50_000
	got := poolMapReduce(n, 8, func(lo, hi int) int64 {
		var s int64
		for i := lo; i < hi; i++ {
			s += int64(i)
		}
		return s
	}, func(a, b int64) int64 { return a + b })
	want := int64(n) * (n - 1) / 2
	if got != want {
		t.Fatalf("MapReduce = %d, want %d", got, want)
	}
}

func TestMapReduceMax(t *testing.T) {
	vals := []int64{3, 9, 1, 7, 9, 2}
	got := poolMapReduce(len(vals), 4, func(lo, hi int) int64 {
		best := int64(-1 << 62)
		for i := lo; i < hi; i++ {
			if vals[i] > best {
				best = vals[i]
			}
		}
		return best
	}, func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	})
	if got != 9 {
		t.Fatalf("max = %d", got)
	}
}

func TestMapReduceEmpty(t *testing.T) {
	if got := poolMapReduce(0, 4, func(lo, hi int) int64 { return 99 },
		func(a, b int64) int64 { return a + b }); got != 0 {
		t.Fatalf("empty MapReduce = %d", got)
	}
}

func TestMapReduceMatchesSerial(t *testing.T) {
	f := func(n uint16, threads uint8) bool {
		nn := int(n)
		tt := int(threads%8) + 1
		sum := func(lo, hi int) int64 {
			var s int64
			for i := lo; i < hi; i++ {
				s += int64(i * i)
			}
			return s
		}
		add := func(a, b int64) int64 { return a + b }
		return poolMapReduce(nn, tt, sum, add) == poolMapReduce(nn, 1, sum, add)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkForSerialVsParallel(b *testing.B) {
	const n = 1 << 20
	data := make([]int64, n)
	for _, threads := range []int{1, 4} {
		name := "t=1"
		if threads == 4 {
			name = "t=4"
		}
		b.Run(name, func(b *testing.B) {
			p := NewPool(threads)
			defer p.Close()
			for i := 0; i < b.N; i++ {
				p.For(n, func(lo, hi int) {
					for k := lo; k < hi; k++ {
						data[k]++
					}
				})
			}
		})
	}
}

func TestForManyThreadsFewItems(t *testing.T) {
	// threads > n/minChunk collapses the pool; all elements still covered.
	var sum atomic.Int64
	poolFor(300, 16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum.Add(1)
		}
	})
	if sum.Load() != 300 {
		t.Fatalf("covered %d of 300", sum.Load())
	}
}

func TestMapReduceManyThreadsFewItems(t *testing.T) {
	got := poolMapReduce(300, 64, func(lo, hi int) int64 { return int64(hi - lo) },
		func(a, b int64) int64 { return a + b })
	if got != 300 {
		t.Fatalf("sum %d", got)
	}
}

func TestMapReduceNegativeN(t *testing.T) {
	if got := poolMapReduce(-5, 4, func(lo, hi int) int64 { return 1 },
		func(a, b int64) int64 { return a + b }); got != 0 {
		t.Fatalf("negative n gave %d", got)
	}
}
