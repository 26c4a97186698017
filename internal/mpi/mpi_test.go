package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestRunBasics(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	w, err := Run(4, func(c *Comm) error {
		if c.Size() != 4 {
			return fmt.Errorf("size %d", c.Size())
		}
		mu.Lock()
		seen[c.Rank()] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Size() != 4 || len(seen) != 4 {
		t.Fatalf("world size %d, ranks seen %d", w.Size(), len(seen))
	}
}

func TestRunPropagatesError(t *testing.T) {
	want := errors.New("rank failure")
	_, err := Run(3, func(c *Comm) error {
		if c.Rank() == 1 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

func TestRunRejectsBadSize(t *testing.T) {
	if _, err := Run(0, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("size 0 accepted")
	}
}

func TestBarrierManyRounds(t *testing.T) {
	const p, rounds = 5, 50
	counter := make([]int, rounds)
	var mu sync.Mutex
	_, err := Run(p, func(c *Comm) error {
		for r := 0; r < rounds; r++ {
			mu.Lock()
			counter[r]++
			mine := counter[r]
			mu.Unlock()
			if mine > p {
				return fmt.Errorf("round %d overshot", r)
			}
			c.Barrier()
			mu.Lock()
			done := counter[r]
			mu.Unlock()
			if done != p {
				return fmt.Errorf("round %d: %d/%d ranks after barrier", r, done, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherv(t *testing.T) {
	_, err := Run(4, func(c *Comm) error {
		mine := make([]int64, c.Rank()+1) // ragged sizes
		for i := range mine {
			mine[i] = int64(c.Rank()*100 + i)
		}
		got := c.Allgatherv(mine)
		if len(got) != 4 {
			return fmt.Errorf("got %d slices", len(got))
		}
		for s := 0; s < 4; s++ {
			if len(got[s]) != s+1 {
				return fmt.Errorf("slice %d has len %d", s, len(got[s]))
			}
			for i, v := range got[s] {
				if v != int64(s*100+i) {
					return fmt.Errorf("got[%d][%d] = %d", s, i, v)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallv(t *testing.T) {
	const p = 5
	_, err := Run(p, func(c *Comm) error {
		parts := make([][]int64, p)
		for d := 0; d < p; d++ {
			// send d copies of rank*10+d to rank d
			for k := 0; k < d; k++ {
				parts[d] = append(parts[d], int64(c.Rank()*10+d))
			}
		}
		got := c.Alltoallv(parts)
		for s := 0; s < p; s++ {
			if len(got[s]) != c.Rank() {
				return fmt.Errorf("from %d: len %d, want %d", s, len(got[s]), c.Rank())
			}
			for _, v := range got[s] {
				if v != int64(s*10+c.Rank()) {
					return fmt.Errorf("from %d: value %d", s, v)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGathervScatterv(t *testing.T) {
	const p = 4
	_, err := Run(p, func(c *Comm) error {
		got := c.Gatherv(0, []int64{int64(c.Rank() * 7)})
		if c.Rank() == 0 {
			for s := 0; s < p; s++ {
				if got[s][0] != int64(s*7) {
					return fmt.Errorf("gather from %d: %v", s, got[s])
				}
			}
		} else if got != nil {
			return fmt.Errorf("non-root received %v", got)
		}

		var parts [][]int64
		if c.Rank() == 0 {
			parts = make([][]int64, p)
			for d := 0; d < p; d++ {
				parts[d] = []int64{int64(d * 11)}
			}
		}
		mine := c.Scatterv(0, parts)
		if len(mine) != 1 || mine[0] != int64(c.Rank()*11) {
			return fmt.Errorf("scatter got %v", mine)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceOps(t *testing.T) {
	const p = 7
	_, err := Run(p, func(c *Comm) error {
		r := int64(c.Rank())
		if got := c.Allreduce(OpSum, r); got != 21 {
			return fmt.Errorf("sum = %d", got)
		}
		if got := c.Allreduce(OpMax, r); got != 6 {
			return fmt.Errorf("max = %d", got)
		}
		if got := c.Allreduce(OpMin, r); got != 0 {
			return fmt.Errorf("min = %d", got)
		}
		var flag int64
		if c.Rank() == 3 {
			flag = 1
		}
		if got := c.Allreduce(OpLor, flag); got != 1 {
			return fmt.Errorf("lor = %d", got)
		}
		if got := c.Allreduce(OpLor, 0); got != 0 {
			return fmt.Errorf("lor all-zero = %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllreduceN: k words reduce elementwise in one collective, metered as
// the scalar tree carrying k words per message (raw size under
// compression); at k = 1 the meter is exactly Allreduce's.
func TestAllreduceN(t *testing.T) {
	ops := []struct {
		name string
		op   ReduceOp
	}{{"sum", OpSum}, {"min", OpMin}, {"max", OpMax}}
	// Word i of rank r alternates sign with i, so each word's sum, min and
	// max come from different ranks.
	word := func(r, i int) int64 {
		v := int64((r + 1) * (i + 1))
		if i%2 == 1 {
			return -v
		}
		return v
	}
	for _, p := range []int{1, 2, 3, 4} {
		for _, k := range []int{1, 2, 3} {
			for _, compress := range []bool{false, true} {
				_, err := RunTransport(RunConfig{Compress: compress}, NewInproc(p), func(c *Comm) error {
					vals := make([]int64, k)
					for i := range vals {
						vals[i] = word(c.Rank(), i)
					}
					depth := logTreeDepth(p)
					for _, o := range ops {
						before, gen := c.MeterSnapshot(), c.nextGen
						got := c.AllreduceN(o.op, vals)
						m := c.MeterSnapshot().Sub(before)
						if c.nextGen-gen != 1 {
							return fmt.Errorf("%s: %d collectives, want 1", o.name, c.nextGen-gen)
						}
						for i := range vals {
							want := word(0, i)
							for r := 1; r < p; r++ {
								want = o.op.Apply(want, word(r, i))
							}
							if got[i] != want {
								return fmt.Errorf("%s word %d = %d, want %d", o.name, i, got[i], want)
							}
						}
						wantEnc := int64(0)
						if compress {
							wantEnc = 2 * depth * int64(k)
						}
						if want := (Meter{Msgs: 2 * depth, Words: 2 * depth * int64(k), WordsEnc: wantEnc}); m != want {
							return fmt.Errorf("%s meter %+v, want %+v", o.name, m, want)
						}
						if k == 1 {
							before := c.MeterSnapshot()
							c.Allreduce(o.op, vals[0])
							if scalar := c.MeterSnapshot().Sub(before); scalar != m {
								return fmt.Errorf("%s: AllreduceN meter %+v, Allreduce %+v", o.name, m, scalar)
							}
						}
					}
					return nil
				})
				if err != nil {
					t.Fatalf("p=%d k=%d compress=%v: %v", p, k, compress, err)
				}
			}
		}
	}
}

func TestSplitGrid(t *testing.T) {
	// 6 ranks -> 2x3 grid: row comm = ranks with same rank/3, col comm = same rank%3.
	_, err := Run(6, func(c *Comm) error {
		row := c.Split(c.Rank()/3, c.Rank()%3)
		col := c.Split(c.Rank()%3, c.Rank()/3)
		if row.Size() != 3 || col.Size() != 2 {
			return fmt.Errorf("row %d col %d", row.Size(), col.Size())
		}
		if row.Rank() != c.Rank()%3 || col.Rank() != c.Rank()/3 {
			return fmt.Errorf("rank %d: row rank %d col rank %d", c.Rank(), row.Rank(), col.Rank())
		}
		// Collectives on sub-communicators stay within the subgroup.
		sum := row.Allreduce(OpSum, int64(c.Rank()))
		wantRow := int64(0 + 1 + 2)
		if c.Rank() >= 3 {
			wantRow = 3 + 4 + 5
		}
		if sum != wantRow {
			return fmt.Errorf("rank %d row sum %d want %d", c.Rank(), sum, wantRow)
		}
		csum := col.Allreduce(OpSum, int64(c.Rank()))
		if want := int64(c.Rank()%3 + c.Rank()%3 + 3); csum != want {
			return fmt.Errorf("rank %d col sum %d want %d", c.Rank(), csum, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitNegativeColor(t *testing.T) {
	_, err := Run(4, func(c *Comm) error {
		color := c.Rank() % 2
		if c.Rank() == 3 {
			color = -1
		}
		sub := c.Split(color, 0)
		if c.Rank() == 3 {
			if sub != nil {
				return errors.New("negative color got a communicator")
			}
			return nil
		}
		want := 2
		if color == 1 {
			want = 1
		}
		if sub.Size() != want {
			return fmt.Errorf("rank %d sub size %d want %d", c.Rank(), sub.Size(), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRMAGetPut(t *testing.T) {
	const p = 4
	_, err := Run(p, func(c *Comm) error {
		local := make([]int64, 8)
		for i := range local {
			local[i] = int64(c.Rank()*1000 + i)
		}
		win := WinCreate(c, local)
		// Everyone reads rank (r+1)%p's element 3.
		peer := (c.Rank() + 1) % p
		if got := win.Get1(peer, 3); got != int64(peer*1000+3) {
			return fmt.Errorf("Get1 = %d", got)
		}
		// Everyone writes into peer's slot equal to its own rank index.
		win.Put1(peer, c.Rank(), int64(-c.Rank()))
		win.Fence()
		// local[r'] was written by the rank whose (rank+1)%p == me, i.e. me-1.
		writer := (c.Rank() + p - 1) % p
		if local[writer] != int64(-writer) {
			return fmt.Errorf("rank %d: local[%d] = %d, want %d", c.Rank(), writer, local[writer], -writer)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRMAFetchAndOpAtomicity(t *testing.T) {
	const p, iters = 8, 200
	w, err := Run(p, func(c *Comm) error {
		var local []int64
		if c.Rank() == 0 {
			local = make([]int64, 1)
		}
		win := WinCreate(c, local)
		for i := 0; i < iters; i++ {
			win.FetchAndOp(0, 0, OpSum, 1)
		}
		win.Fence()
		if c.Rank() == 0 && local[0] != p*iters {
			return fmt.Errorf("counter = %d, want %d", local[0], p*iters)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = w
}

func TestRMAReplace(t *testing.T) {
	_, err := Run(2, func(c *Comm) error {
		local := []int64{int64(c.Rank() + 40)}
		win := WinCreate(c, local)
		if c.Rank() == 0 {
			old := win.FetchAndOp(1, 0, OpReplace, 99)
			if old != 41 {
				return fmt.Errorf("old = %d", old)
			}
		}
		win.Fence()
		if c.Rank() == 1 && local[0] != 99 {
			return fmt.Errorf("replace missed: %d", local[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMetersAlltoallv(t *testing.T) {
	const p = 4
	w, err := Run(p, func(c *Comm) error {
		parts := make([][]int64, p)
		for d := 0; d < p; d++ {
			parts[d] = make([]int64, 10)
		}
		c.Alltoallv(parts)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		m := w.RankMeter(r)
		if m.Msgs != p-1 {
			t.Errorf("rank %d msgs = %d, want %d", r, m.Msgs, p-1)
		}
		if m.Words != 30 { // 10 words to each of 3 others
			t.Errorf("rank %d words = %d, want 30", r, m.Words)
		}
	}
}

func TestMetersRMALocalFree(t *testing.T) {
	w, err := Run(2, func(c *Comm) error {
		local := make([]int64, 4)
		win := WinCreate(c, local)
		win.Get(c.Rank(), 0, 4) // local: free
		win.Put1(c.Rank(), 0, 5)
		win.Fence()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if m := w.RankMeter(r); m.Msgs != 0 || m.Words != 0 {
			t.Errorf("rank %d meter %+v, want zero for local RMA", r, m)
		}
	}
}

func TestMeterWork(t *testing.T) {
	w, err := Run(3, func(c *Comm) error {
		c.AddWork(10 * (c.Rank() + 1))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.MaxMeter().Work; got != 30 {
		t.Errorf("max work = %d, want 30", got)
	}
	if got := w.TotalMeter().Work; got != 60 {
		t.Errorf("total work = %d, want 60", got)
	}
}

func TestMeterArithmetic(t *testing.T) {
	a := Meter{Msgs: 1, Words: 10, Work: 100, WordsEnc: 4}
	b := Meter{Msgs: 2, Words: 5, Work: 200, WordsEnc: 3}
	if got := a.Add(b); got != (Meter{3, 15, 300, 7}) {
		t.Errorf("Add = %+v", got)
	}
	if got := b.Sub(a); got != (Meter{1, -5, 100, -1}) {
		t.Errorf("Sub = %+v", got)
	}
	if got := a.Max(b); got != (Meter{2, 10, 200, 4}) {
		t.Errorf("Max = %+v", got)
	}
}

func TestLogTreeDepth(t *testing.T) {
	cases := map[int]int64{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10}
	for p, want := range cases {
		if got := logTreeDepth(p); got != want {
			t.Errorf("logTreeDepth(%d) = %d, want %d", p, got, want)
		}
	}
}

// TestCollectiveStress interleaves many collective types across many ranks to
// shake out rendezvous bugs.
func TestCollectiveStress(t *testing.T) {
	const p = 9
	_, err := Run(p, func(c *Comm) error {
		rng := rand.New(rand.NewSource(int64(17))) // same sequence everywhere
		for round := 0; round < 40; round++ {
			switch rng.Intn(4) {
			case 0:
				c.Barrier()
			case 1:
				sum := c.Allreduce(OpSum, 1)
				if sum != p {
					return fmt.Errorf("round %d: sum %d", round, sum)
				}
			case 2:
				got := c.Allgatherv([]int64{int64(c.Rank())})
				for s := range got {
					if got[s][0] != int64(s) {
						return fmt.Errorf("round %d: allgather %v", round, got)
					}
				}
			case 3:
				parts := make([][]int64, p)
				for d := range parts {
					parts[d] = []int64{int64(c.Rank()*p + d)}
				}
				got := c.Alltoallv(parts)
				for s := range got {
					if got[s][0] != int64(s*p+c.Rank()) {
						return fmt.Errorf("round %d: alltoall %v", round, got)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAlltoallv16(b *testing.B) {
	_, err := Run(16, func(c *Comm) error {
		parts := make([][]int64, 16)
		for d := range parts {
			parts[d] = make([]int64, 64)
		}
		c.Barrier()
		for i := 0; i < b.N; i++ {
			c.Alltoallv(parts)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkRMAFetchAndOp(b *testing.B) {
	_, err := Run(4, func(c *Comm) error {
		local := make([]int64, 1)
		win := WinCreate(c, local)
		for i := 0; i < b.N; i++ {
			win.FetchAndOp((c.Rank()+1)%4, 0, OpSum, 1)
		}
		win.Fence()
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
