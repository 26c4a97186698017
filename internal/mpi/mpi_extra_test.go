package mpi

import (
	"fmt"
	"testing"
)

// TestMultipleWindowsConcurrent: several windows created back-to-back must
// stay independent.
func TestMultipleWindowsConcurrent(t *testing.T) {
	const p = 4
	_, err := Run(p, func(c *Comm) error {
		a := make([]int64, 2)
		b := make([]int64, 2)
		wa := WinCreate(c, a)
		wb := WinCreate(c, b)
		peer := (c.Rank() + 1) % p
		wa.Put1(peer, 0, int64(100+c.Rank()))
		wb.Put1(peer, 0, int64(200+c.Rank()))
		wa.Fence()
		wb.Fence()
		writer := int64((c.Rank() + p - 1) % p)
		if a[0] != 100+writer {
			return fmt.Errorf("window a got %d", a[0])
		}
		if b[0] != 200+writer {
			return fmt.Errorf("window b got %d", b[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitOfSplit: sub-communicators can be split again.
func TestSplitOfSplit(t *testing.T) {
	const p = 8
	_, err := Run(p, func(c *Comm) error {
		half := c.Split(c.Rank()/4, c.Rank()%4) // two groups of 4
		quarter := half.Split(half.Rank()/2, half.Rank()%2)
		if quarter.Size() != 2 {
			return fmt.Errorf("quarter size %d", quarter.Size())
		}
		// Sum of world ranks within each final pair.
		sum := quarter.Allreduce(OpSum, int64(c.Rank()))
		base := (c.Rank() / 2) * 2
		if want := int64(base + base + 1); sum != want {
			return fmt.Errorf("rank %d: pair sum %d, want %d", c.Rank(), sum, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRepeatedSplitsDistinct: calling Split twice yields independent
// communicators with independent collective streams.
func TestRepeatedSplitsDistinct(t *testing.T) {
	_, err := Run(4, func(c *Comm) error {
		s1 := c.Split(c.Rank()%2, 0)
		s2 := c.Split(c.Rank()%2, 0)
		v1 := s1.Allreduce(OpSum, 1)
		v2 := s2.Allreduce(OpSum, 2)
		if v1 != 2 || v2 != 4 {
			return fmt.Errorf("sums %d %d", v1, v2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallvWrongPartsPanics(t *testing.T) {
	_, err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				c.Alltoallv([][]int64{nil}) // wrong parts length
				return false
			}()
			if !panicked {
				return fmt.Errorf("wrong parts length accepted")
			}
		}
		// Both ranks complete one well-formed exchange (rank 0's panic fired
		// before it joined the rendezvous, so the streams still match).
		c.Alltoallv([][]int64{nil, nil})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGathervEmptyContributions: zero-length contributions are legal.
func TestGathervEmptyContributions(t *testing.T) {
	_, err := Run(3, func(c *Comm) error {
		var mine []int64
		if c.Rank() == 1 {
			mine = []int64{42}
		}
		got := c.Gatherv(2, mine)
		if c.Rank() == 2 {
			if len(got[0]) != 0 || len(got[1]) != 1 || got[1][0] != 42 || len(got[2]) != 0 {
				return fmt.Errorf("gather: %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWorldAccessors covers the remaining World/Comm accessors.
func TestWorldAccessors(t *testing.T) {
	w, err := Run(2, func(c *Comm) error {
		if c.World() == nil {
			return fmt.Errorf("nil world")
		}
		if c.WorldRank() != c.Rank() {
			return fmt.Errorf("world rank mismatch on the world comm")
		}
		sub := c.Split(0, -c.Rank()) // reversed key order
		if sub.WorldRank() != c.Rank() {
			return fmt.Errorf("WorldRank changed by split")
		}
		if sub.Rank() != 1-c.Rank() {
			return fmt.Errorf("split key ordering ignored: rank %d -> %d", c.Rank(), sub.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Size() != 2 {
		t.Fatal("world size wrong")
	}
}

// TestRMAGetRange: multi-element Get/Put.
func TestRMAGetRange(t *testing.T) {
	_, err := Run(2, func(c *Comm) error {
		local := []int64{int64(c.Rank()) * 10, int64(c.Rank())*10 + 1, int64(c.Rank())*10 + 2}
		win := WinCreate(c, local)
		peer := 1 - c.Rank()
		got := win.Get(peer, 1, 2)
		want0, want1 := int64(peer)*10+1, int64(peer)*10+2
		if got[0] != want0 || got[1] != want1 {
			return fmt.Errorf("Get range = %v", got)
		}
		win.Put(peer, 0, []int64{-1, -2})
		win.Fence()
		if local[0] != -1 || local[1] != -2 || local[2] != int64(c.Rank())*10+2 {
			return fmt.Errorf("Put range result %v", local)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestKindMetersAttribute: each collective family accumulates under its own
// kind, and kinds sum to the total.
func TestKindMetersAttribute(t *testing.T) {
	const p = 4
	w, err := Run(p, func(c *Comm) error {
		c.Allgatherv(make([]int64, 8))
		parts := make([][]int64, p)
		for d := range parts {
			parts[d] = make([]int64, 4)
		}
		c.Alltoallv(parts)
		c.Allreduce(OpSum, 1)
		c.Gatherv(0, []int64{int64(c.Rank())})
		var sc [][]int64
		if c.Rank() == 0 {
			sc = make([][]int64, p)
			for d := range sc {
				sc[d] = []int64{9}
			}
		}
		c.Scatterv(0, sc)
		win := WinCreate(c, make([]int64, 2))
		win.Put1((c.Rank()+1)%p, 0, 5)
		win.Fence()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		total := w.RankMeter(r)
		var sumMsgs, sumWords int64
		for k := CommKind(0); k < numKinds; k++ {
			km := w.RankKindMeter(r, k)
			sumMsgs += km.Msgs
			sumWords += km.Words
		}
		if sumMsgs != total.Msgs || sumWords != total.Words {
			t.Fatalf("rank %d: kinds sum (%d,%d) != total (%d,%d)",
				r, sumMsgs, sumWords, total.Msgs, total.Words)
		}
		for _, k := range []CommKind{KindAllgather, KindAlltoall, KindReduce, KindRMA} {
			if w.RankKindMeter(r, k).Msgs == 0 {
				t.Errorf("rank %d: kind %v recorded nothing", r, k)
			}
		}
	}
}

func TestCommKindString(t *testing.T) {
	names := map[CommKind]string{
		KindAllgather: "allgather", KindAlltoall: "alltoall", KindGather: "gather",
		KindScatter: "scatter", KindReduce: "reduce", KindRMA: "rma",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if CommKind(99).String() != "CommKind(99)" {
		t.Error("unknown kind string wrong")
	}
}
