package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestPoolForChunkedCoversRangeExactly(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	f := func(n uint16, grain uint8) bool {
		nn := int(n)
		g := int(grain) + 1
		seen := make([]int32, nn)
		p.ForChunked(nn, g, func(w, lo, hi int) {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolWidthMatchesForChunked(t *testing.T) {
	p := NewPool(6)
	defer p.Close()
	for _, tc := range []struct{ n, grain int }{
		{0, 16}, {1, 16}, {15, 16}, {16, 16}, {17, 16}, {96, 16}, {97, 16}, {10_000, 16}, {10_000, 5000},
	} {
		want := p.Width(tc.n, tc.grain)
		var maxW int64 = -1
		var calls int64
		p.ForChunked(tc.n, tc.grain, func(w, lo, hi int) {
			atomic.AddInt64(&calls, 1)
			for {
				cur := atomic.LoadInt64(&maxW)
				if int64(w) <= cur || atomic.CompareAndSwapInt64(&maxW, cur, int64(w)) {
					break
				}
			}
		})
		if tc.n == 0 {
			if calls != 0 {
				t.Fatalf("n=0 made %d calls", calls)
			}
			continue
		}
		if int(calls) != want {
			t.Fatalf("n=%d grain=%d: %d chunks, Width says %d", tc.n, tc.grain, calls, want)
		}
		if int(maxW) != want-1 {
			t.Fatalf("n=%d grain=%d: max worker id %d, want %d", tc.n, tc.grain, maxW, want-1)
		}
	}
}

func TestPoolChunksTileRange(t *testing.T) {
	p := NewPool(5)
	defer p.Close()
	for _, n := range []int{0, 1, 7, 99, 100, 101, 12345} {
		b := p.Chunks(n, 10)
		if b[0] != 0 || b[len(b)-1] != n {
			t.Fatalf("n=%d: bounds %v", n, b)
		}
		for i := 1; i < len(b); i++ {
			if b[i] < b[i-1] {
				t.Fatalf("n=%d: decreasing bounds %v", n, b)
			}
		}
	}
}

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	calls := 0
	p.ForChunked(1000, 1, func(w, lo, hi int) {
		calls++
		if w != 0 || lo != 0 || hi != 1000 {
			t.Fatalf("inline chunk w=%d [%d,%d)", w, lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("%d calls, want 1", calls)
	}
	if got := p.MapReduce(5000, func(lo, hi int) int64 { return int64(hi - lo) },
		func(a, b int64) int64 { return a + b }); got != 5000 {
		t.Fatalf("nil-pool MapReduce = %d", got)
	}
	if p.Threads() != 1 || p.Width(1<<20, 1) != 1 {
		t.Fatal("nil pool must report width 1")
	}
	p.Close() // must not panic
}

func TestPoolMapReduceMatchesSerial(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	f := func(n uint16) bool {
		nn := int(n)
		sum := func(lo, hi int) int64 {
			var s int64
			for i := lo; i < hi; i++ {
				s += int64(i * i)
			}
			return s
		}
		add := func(a, b int64) int64 { return a + b }
		return p.MapReduce(nn, sum, add) == sum(0, nn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolPanicPropagates(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
		// The pool must survive a panicking region.
		var sum atomic.Int64
		p.ForChunked(4096, 1, func(w, lo, hi int) { sum.Add(int64(hi - lo)) })
		if sum.Load() != 4096 {
			t.Fatalf("pool broken after panic: covered %d", sum.Load())
		}
	}()
	p.ForChunked(4096, 1, func(w, lo, hi int) {
		if lo >= 2048 { // lands on a worker chunk, not the caller's
			panic("boom")
		}
	})
	t.Fatal("unreachable: panic must propagate")
}

func TestPoolStats(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	p.ForChunked(10, 256, func(w, lo, hi int) {}) // inline: below grain
	p.ForChunked(1<<16, 1, func(w, lo, hi int) {
		var s int
		for i := lo; i < hi; i++ {
			s += i
		}
		_ = s
	})
	st := p.Stats()
	if st.Threads != 4 {
		t.Fatalf("threads %d", st.Threads)
	}
	if st.Inline != 1 {
		t.Fatalf("inline regions %d, want 1", st.Inline)
	}
	if st.Regions != 1 {
		t.Fatalf("fanned regions %d, want 1", st.Regions)
	}
	if st.Span <= 0 {
		t.Fatalf("span %v", st.Span)
	}
	if u := st.Utilization(); u < 0 || u > 1.5 {
		t.Fatalf("utilization %v out of range", u)
	}
	if d := st.Sub(Stats{Regions: 1}); d.Regions != 0 {
		t.Fatalf("Sub regions %d", d.Regions)
	}
	if m := st.Max(Stats{Regions: 99}); m.Regions != 99 {
		t.Fatalf("Max regions %d", m.Regions)
	}
}

// TestPoolConcurrentRanksStress is the -race stress test for the persistent
// pool: many "ranks" (as in the simulated MPI runtime) each own a private
// pool and drive overlapping regions concurrently. Pools share nothing, so
// the race detector verifies the dispatch/park protocol itself.
func TestPoolConcurrentRanksStress(t *testing.T) {
	const ranks = 8
	const regions = 200
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			p := NewPool(1 + r%4)
			defer p.Close()
			data := make([]int64, 4096)
			for g := 0; g < regions; g++ {
				p.ForChunked(len(data), 64, func(w, lo, hi int) {
					for i := lo; i < hi; i++ {
						data[i]++
					}
				})
				got := p.MapReduce(len(data), func(lo, hi int) int64 {
					var s int64
					for i := lo; i < hi; i++ {
						s += data[i]
					}
					return s
				}, func(a, b int64) int64 { return a + b })
				if want := int64(len(data)) * int64(g+1); got != want {
					t.Errorf("rank %d region %d: sum %d, want %d", r, g, got, want)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestForChunkedPanicWaitsForWorkers: when the caller's own chunk panics,
// the region still waits for every worker chunk before re-raising, so no
// worker writes into the region's data after the region has unwound.
func TestForChunkedPanicWaitsForWorkers(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var done atomic.Bool
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		p.ForChunked(2, 1, func(w, lo, hi int) {
			if w == 0 {
				panic("boom")
			}
			time.Sleep(50 * time.Millisecond)
			done.Store(true)
		})
	}()
	if !done.Load() {
		t.Fatal("the region unwound while a worker chunk was still running")
	}
}
