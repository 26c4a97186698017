package rt

import (
	"math/rand/v2"
	"slices"
	"testing"

	"mcmdist/internal/mpi"
	"mcmdist/internal/semiring"
)

func TestClassForCapacities(t *testing.T) {
	cases := []struct{ n, cls int }{
		{0, 0}, {1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2}, {4096, 6},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.cls {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.cls)
		}
		if c.n > 0 && minClassCap<<classFor(c.n) < c.n {
			t.Errorf("classFor(%d) capacity %d < n", c.n, minClassCap<<classFor(c.n))
		}
	}
}

func TestPutClassInvariant(t *testing.T) {
	// Whatever class a buffer is pooled under, its capacity must satisfy
	// that class, so Get's cap >= n promise holds.
	for _, bufCap := range []int{0, 1, 63, 64, 65, 127, 128, 200, 4095, 4096} {
		cls, ok := putClass(bufCap)
		if bufCap < minClassCap {
			if ok {
				t.Errorf("putClass(%d) pooled a sub-minimum buffer", bufCap)
			}
			continue
		}
		if !ok {
			t.Errorf("putClass(%d) refused a poolable buffer", bufCap)
		}
		if minClassCap<<cls > bufCap {
			t.Errorf("putClass(%d) = class %d needing cap %d", bufCap, cls, minClassCap<<cls)
		}
	}
}

func TestGetPutReusesBacking(t *testing.T) {
	c := New(nil)
	b := c.GetInts(100)
	if len(b) != 0 || cap(b) < 100 {
		t.Fatalf("GetInts(100): len %d cap %d", len(b), cap(b))
	}
	b = append(b, 1, 2, 3)
	first := &b[0]
	c.PutInts(b)
	b2 := c.GetInts(50) // same class (64..128 holds neither; 100→class 1, 50→class 0)
	_ = b2
	b3 := c.GetInts(100)
	if len(b3) != 0 || cap(b3) < 100 {
		t.Fatalf("reborrow: len %d cap %d", len(b3), cap(b3))
	}
	b3 = append(b3, 9)
	if &b3[0] != first {
		t.Error("GetInts did not reuse the pooled backing array")
	}
}

func TestPutDropsTinyBuffers(t *testing.T) {
	c := New(nil)
	c.PutInts(make([]int64, 0, 10))
	b := c.GetInts(5)
	if cap(b) < minClassCap {
		t.Errorf("Get after tiny Put returned cap %d < class capacity %d", cap(b), minClassCap)
	}
}

func TestOutstandingGetsNeverAlias(t *testing.T) {
	c := New(nil)
	var bufs [][]int64
	for i := 0; i < 8; i++ {
		b := c.GetInts(64)
		b = append(b, int64(i))
		bufs = append(bufs, b)
	}
	for i := range bufs {
		for j := i + 1; j < len(bufs); j++ {
			if &bufs[i][0] == &bufs[j][0] {
				t.Fatalf("outstanding borrows %d and %d share backing", i, j)
			}
		}
	}
	for i, b := range bufs {
		if b[0] != int64(i) {
			t.Fatalf("borrow %d clobbered: %d", i, b[0])
		}
	}
}

func TestMaxPerClassBound(t *testing.T) {
	c := New(nil)
	for i := 0; i < 3*maxPerClass; i++ {
		c.PutInts(make([]int64, 0, minClassCap))
	}
	if got := len(c.ints[0]); got != maxPerClass {
		t.Errorf("class 0 holds %d free buffers, want max %d", got, maxPerClass)
	}
}

func TestGetPartsRoundTrip(t *testing.T) {
	c := New(nil)
	ps := c.GetParts(4)
	if len(ps) != 4 {
		t.Fatalf("GetParts(4) len %d", len(ps))
	}
	for d := range ps {
		for k := 0; k < 100; k++ {
			ps[d] = append(ps[d], int64(d*100+k))
		}
	}
	backing := make([]*int64, 4)
	for d := range ps {
		backing[d] = &ps[d][0]
	}
	c.PutParts(ps)
	ps2 := c.GetParts(4)
	for d := range ps2 {
		if len(ps2[d]) != 0 {
			t.Fatalf("reborrowed part %d not reset: len %d", d, len(ps2[d]))
		}
		ps2[d] = append(ps2[d], 1)
		if &ps2[d][0] != backing[d] {
			t.Errorf("part %d backing not reused", d)
		}
	}
	// Growing the set keeps the old backings where possible.
	c.PutParts(ps2)
	ps3 := c.GetParts(6)
	if len(ps3) != 6 {
		t.Fatalf("GetParts(6) len %d", len(ps3))
	}
	ps3[0] = append(ps3[0], 1)
	if &ps3[0][0] != backing[0] {
		t.Error("grown parts set dropped existing backing 0")
	}
}

func TestScratchEpochSemantics(t *testing.T) {
	c := New(nil)
	s := c.Scratch("x", 10)
	if s.Len() < 10 {
		t.Fatalf("scratch len %d", s.Len())
	}
	for i := 0; i < 10; i++ {
		if s.Has(i) {
			t.Fatalf("fresh scratch has %d", i)
		}
	}
	s.Set(3, semiring.Vertex{Parent: 7, Root: 8})
	s.Set(5, semiring.Vertex{})
	if !s.Has(3) || !s.Has(5) || s.Has(4) {
		t.Fatal("Set/Has broken")
	}
	if s.Val[3] != (semiring.Vertex{Parent: 7, Root: 8}) {
		t.Fatalf("value: %v", s.Val[3])
	}
	// Re-borrowing invalidates without zeroing.
	s2 := c.Scratch("x", 10)
	if s2 != s {
		t.Fatal("same tag, same size should return the same scratch")
	}
	if s2.Has(3) || s2.Has(5) {
		t.Fatal("re-borrow did not invalidate the previous borrow")
	}
	// Distinct tags are independent even at the same size.
	a, b := c.Scratch("a", 8), c.Scratch("b", 8)
	if a == b {
		t.Fatal("distinct tags share a scratch")
	}
	a.Set(1, semiring.Vertex{})
	if b.Has(1) {
		t.Fatal("tag b sees tag a's mark")
	}
}

func TestScratchGrowAndReborrowSmaller(t *testing.T) {
	c := New(nil)
	s := c.Scratch("g", 4)
	s.Set(0, semiring.Vertex{})
	s = c.Scratch("g", 100) // regrow
	if s.Len() != 100 {
		t.Fatalf("regrown len %d", s.Len())
	}
	if s.Has(0) {
		t.Fatal("regrown scratch kept old marks")
	}
	// A smaller re-borrow after a larger one spans only its own n and
	// leaves nothing present, including marks in the shared last word and
	// beyond the new length.
	for _, i := range []int{2, 63, 64, 65, 99} {
		s.Set(i, semiring.Vertex{})
	}
	s2 := c.Scratch("g", 65)
	if s2 != s || s2.Len() != 65 {
		t.Fatalf("smaller re-borrow: same %v, len %d", s2 == s, s2.Len())
	}
	for i := 0; i < s2.Len(); i++ {
		if s2.Has(i) {
			t.Fatalf("index %d present after smaller re-borrow", i)
		}
	}
	if got := s2.Next(0); got != s2.Len() {
		t.Fatalf("Next(0) = %d after smaller re-borrow, want %d", got, s2.Len())
	}
}

// TestScratchNextYieldsSortedSet: over sizes that are not multiples of 64,
// random Set sequences — always including the word-edge indices 63, 64
// and 65 when they fit — must read back through Next as exactly the sorted
// set of touched indices, and Has must agree with the set everywhere.
func TestScratchNextYieldsSortedSet(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	c := New(nil)
	for _, n := range []int{1, 63, 65, 66, 127, 129, 200, 1000} {
		for trial := 0; trial < 20; trial++ {
			s := c.Scratch("prop", n)
			want := map[int]bool{}
			touch := func(i int) {
				s.Set(i, semiring.Vertex{Parent: int64(i)})
				want[i] = true
			}
			for _, i := range []int{63, 64, 65} {
				if i < n {
					touch(i)
				}
			}
			for k := rng.IntN(n + 1); k > 0; k-- {
				touch(rng.IntN(n))
			}
			var got []int
			for i := s.Next(0); i < s.Len(); i = s.Next(i + 1) {
				got = append(got, i)
			}
			sorted := make([]int, 0, len(want))
			for i := range want {
				sorted = append(sorted, i)
			}
			slices.Sort(sorted)
			if !slices.Equal(got, sorted) {
				t.Fatalf("n=%d trial %d: Next walk %v, want %v", n, trial, got, sorted)
			}
			for i := 0; i < n; i++ {
				if s.Has(i) != want[i] {
					t.Fatalf("n=%d trial %d: Has(%d) = %v", n, trial, i, s.Has(i))
				}
			}
			if got := s.Next(s.Len()); got != s.Len() {
				t.Fatalf("n=%d: Next(Len()) = %d", n, got)
			}
		}
	}
}

func TestDisabledAndNilArePassThrough(t *testing.T) {
	for _, c := range []*Ctx{nil, NewDisabled(nil)} {
		if c.Enabled() {
			t.Fatal("Enabled on nil/disabled ctx")
		}
		b := c.GetInts(10)
		if len(b) != 0 || cap(b) < 10 {
			t.Fatalf("disabled GetInts: len %d cap %d", len(b), cap(b))
		}
		b = append(b, 1)
		c.PutInts(b)
		b2 := c.GetInts(10)
		b2 = append(b2, 2)
		if &b2[0] == &b[0] {
			t.Fatal("disabled ctx pooled a buffer")
		}
		ps := c.GetParts(3)
		if len(ps) != 3 {
			t.Fatalf("disabled GetParts len %d", len(ps))
		}
		c.PutParts(ps)
		cost := c.Track("op", func() {})
		if cost.Meter != (mpi.Meter{}) {
			t.Fatalf("nil-comm Track metered %+v", cost.Meter)
		}
	}
	// Disabled scratch is fresh each borrow.
	d := NewDisabled(nil)
	s1 := d.Scratch("t", 5)
	s1.Set(1, semiring.Vertex{})
	s2 := d.Scratch("t", 5)
	if s2.Has(1) {
		t.Fatal("disabled scratch persisted state")
	}
}

// TestCrossRankNoAliasing: each rank's context pools its own storage; a
// buffer borrowed on rank r, filled with r's pattern, must still hold that
// pattern after every rank has borrowed, written, returned, and re-borrowed
// concurrently. Run under -race this is also the data-race guard for the
// arena.
func TestCrossRankNoAliasing(t *testing.T) {
	const p = 8
	_, err := mpi.Run(p, func(c *mpi.Comm) error {
		ctx := New(c)
		for round := 0; round < 50; round++ {
			b := ctx.GetInts(1 << uint(round%10))
			for k := 0; k < 128; k++ {
				b = append(b, int64(c.Rank()*1_000_000+round*1000+k))
			}
			c.Barrier() // maximal interleaving across ranks
			for k := 0; k < 128; k++ {
				if b[k] != int64(c.Rank()*1_000_000+round*1000+k) {
					t.Errorf("rank %d round %d: int buffer clobbered at %d", c.Rank(), round, k)
				}
			}
			ctx.PutInts(b)
			s := ctx.Scratch("cross", 64)
			s.Set(c.Rank()%64, semiring.Self(int64(c.Rank())))
			c.Barrier()
			if !s.Has(c.Rank()%64) || s.Val[c.Rank()%64] != semiring.Self(int64(c.Rank())) {
				t.Errorf("rank %d round %d: scratch clobbered", c.Rank(), round)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTrackAccumulatesMeterDelta(t *testing.T) {
	_, err := mpi.Run(2, func(c *mpi.Comm) error {
		ctx := New(c)
		m1 := ctx.Track("gather", func() {
			c.Allgatherv([]int64{1, 2, 3})
		}).Meter
		if m1.Msgs != 1 {
			t.Errorf("rank %d: tracked msgs %d, want 1", c.Rank(), m1.Msgs)
		}
		d2 := ctx.Track("gather", func() {
			c.Allgatherv([]int64{4})
		})
		if d2.Meter.Msgs != 1 {
			t.Errorf("rank %d: second tracked msgs %d, want 1 (a delta, not a running total)", c.Rank(), d2.Meter.Msgs)
		}
		if d2.Wall <= 0 {
			t.Errorf("rank %d: no wall time measured", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBindAcrossWorlds: a context reused across two mpi.Run worlds keeps its
// pooled storage but meters against the newly bound comm.
func TestBindAcrossWorlds(t *testing.T) {
	ctx := New(nil)
	var firstBacking *int64
	for world := 0; world < 2; world++ {
		_, err := mpi.Run(1, func(c *mpi.Comm) error {
			ctx.Bind(c)
			b := ctx.GetInts(100)
			b = append(b, 1)
			if world == 0 {
				firstBacking = &b[0]
			} else if &b[0] != firstBacking {
				t.Error("pooled storage not carried across worlds")
			}
			ctx.PutInts(b)
			ctx.Track("solve", func() { c.Allreduce(mpi.OpSum, 1) })
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestScratchShardsInvalidateOnReborrow(t *testing.T) {
	c := New(nil)
	ss := c.ScratchShards("shard.test", 3, 100)
	if len(ss) != 3 {
		t.Fatalf("got %d shards", len(ss))
	}
	for w, s := range ss {
		if s.Len() < 100 {
			t.Fatalf("shard %d len %d", w, s.Len())
		}
		if s.Has(w) {
			t.Fatalf("shard %d has entry %d before Set", w, w)
		}
		s.Set(w, semiring.Vertex{Parent: int64(w)})
	}
	// Distinct shards must not alias.
	for w, s := range ss {
		for i := 0; i < 3; i++ {
			if s.Has(i) != (i == w) {
				t.Fatalf("shard %d aliasing at %d", w, i)
			}
		}
	}
	// Re-borrow invalidates all entries and may grow the set.
	ss2 := c.ScratchShards("shard.test", 4, 100)
	for w, s := range ss2 {
		if s.Has(w % 3) {
			t.Fatalf("shard %d kept stale entry after re-borrow", w)
		}
	}
	if ss2[0] != ss[0] {
		t.Fatal("re-borrow did not reuse shard storage")
	}
	// A re-borrow at a smaller n leaves nothing present in any shard.
	for _, s := range ss2 {
		for _, i := range []int{5, 63, 64, 70, 99} {
			s.Set(i, semiring.Vertex{})
		}
	}
	for w, s := range c.ScratchShards("shard.test", 4, 66) {
		if s.Len() != 66 {
			t.Fatalf("shard %d len %d after smaller re-borrow", w, s.Len())
		}
		if got := s.Next(0); got != s.Len() {
			t.Fatalf("shard %d has entry %d after smaller re-borrow", w, got)
		}
	}
}

func TestScratchShardsDisabledCtx(t *testing.T) {
	c := NewDisabled(nil)
	ss := c.ScratchShards("x", 2, 50)
	if len(ss) != 2 || ss[0] == ss[1] {
		t.Fatal("disabled ctx must hand out distinct fresh shards")
	}
	ss[0].Set(7, semiring.Vertex{})
	if !ss[0].Has(7) || ss[1].Has(7) {
		t.Fatal("disabled shards broken")
	}
}

func TestEnsureThreadsLifecycle(t *testing.T) {
	c := New(nil)
	if c.Pool().Threads() != 1 || c.Pool() != nil {
		t.Fatal("fresh ctx must have inline pool")
	}
	c.EnsureThreads(4)
	p := c.Pool()
	if p.Threads() != 4 {
		t.Fatalf("threads %d", p.Threads())
	}
	c.EnsureThreads(4)
	if c.Pool() != p {
		t.Fatal("same-size EnsureThreads must keep the pool")
	}
	c.EnsureThreads(2)
	if c.Pool() == p || c.Pool().Threads() != 2 {
		t.Fatal("resize must replace the pool")
	}
	c.Close()
	if c.Pool() != nil || c.Pool().Threads() != 1 {
		t.Fatal("Close must drop to the inline pool")
	}
	c.Close() // idempotent
	var nilCtx *Ctx
	nilCtx.EnsureThreads(8)
	nilCtx.Close()
	if nilCtx.Pool().Threads() != 1 {
		t.Fatal("nil ctx must report 1 thread")
	}
}

// vec is a stand-in for a dvec vector: the fields the store points at.
type vec struct {
	dense []int64
	idx   []int
	val   []semiring.Vertex
}

// TestHoldColdExactAndReleaseNils: a cold context hands out fresh buffers
// of exactly the requested dense length; the next Bind sets every held
// field to nil, and the next solve's holds, made in the same order, get
// back the buffers of the same roles, grown as the last solve left them.
func TestHoldColdExactAndReleaseNils(t *testing.T) {
	c := New(nil)
	var a, b vec
	c.HoldDense(&a.dense, 100)
	c.HoldDense(&b.dense, 7)
	if len(a.dense) != 100 || cap(a.dense) != 100 || len(b.dense) != 7 || cap(b.dense) != 7 {
		t.Fatalf("cold dense holds: len/cap %d/%d and %d/%d, want exact", len(a.dense), cap(a.dense), len(b.dense), cap(b.dense))
	}
	c.HoldVertices(&a.idx, &a.val)
	if len(a.idx) != 0 || len(a.val) != 0 {
		t.Fatalf("cold sparse hold is not empty: %d, %d", len(a.idx), len(a.val))
	}
	a.idx = append(a.idx, make([]int, 300)...) // the solve grows its frontier
	a.val = append(a.val, make([]semiring.Vertex, 300)...)
	denseA, idxA, valA := &a.dense[0], &a.idx[0], &a.val[0]
	c.Bind(nil)
	if a.dense != nil || b.dense != nil || a.idx != nil || a.val != nil {
		t.Fatal("Bind left a held field set")
	}

	var x, y vec
	c.HoldDense(&x.dense, 100)
	c.HoldDense(&y.dense, 7)
	c.HoldVertices(&x.idx, &x.val)
	if &x.dense[0] != denseA || len(x.dense) != 100 {
		t.Error("warm dense hold did not get its role's buffer back")
	}
	if len(x.idx) != 0 || cap(x.idx) < 300 || &x.idx[:1][0] != idxA || &x.val[:1][0] != valA {
		t.Error("warm sparse hold did not get its grown buffers back")
	}
	if len(y.dense) != 7 {
		t.Errorf("warm dense hold length %d, want 7", len(y.dense))
	}
}

// TestHoldFitsAndBounds: a dense hold never gets a buffer too small for it,
// and the store keeps at most maxKept free buffers of a kind.
func TestHoldFitsAndBounds(t *testing.T) {
	c := New(nil)
	vs := make([]vec, maxKept+4)
	for i := range vs {
		c.HoldDense(&vs[i].dense, 10+i)
	}
	c.Bind(nil)
	if n := len(c.dense.free); n != maxKept {
		t.Fatalf("store keeps %d free dense buffers, want %d", n, maxKept)
	}
	var big vec
	c.HoldDense(&big.dense, 1000)
	if len(big.dense) != 1000 {
		t.Fatalf("hold of 1000 got length %d", len(big.dense))
	}
	if n := len(c.dense.free); n != maxKept {
		t.Errorf("a hold no free buffer fits took one: %d left", n)
	}
}

// TestBindReclaimsHolds: Bind is the store's one release point. Whether
// the previous solve gathered its result or unwound, Bind sets every field
// it held to nil and puts the buffer on its kind's free list, and the next
// hold of that size gets the same backing array back. Every kind is
// covered: dense, index, int64 value and vertex value.
func TestBindReclaimsHolds(t *testing.T) {
	c := New(nil)
	var v vec
	var sidx []int
	var sval []int64
	c.HoldDense(&v.dense, 50)
	c.HoldVertices(&v.idx, &v.val)
	c.HoldSparse(&sidx, &sval)
	// The solve grows its sparse vectors, then unwinds without a word to
	// the store.
	v.idx = append(v.idx, make([]int, 40)...)
	v.val = append(v.val, make([]semiring.Vertex, 40)...)
	sidx = append(sidx, make([]int, 20)...)
	sval = append(sval, make([]int64, 20)...)
	dense, idx, val, si, sv := &v.dense[0], &v.idx[0], &v.val[0], &sidx[0], &sval[0]

	c.Bind(nil)
	if v.dense != nil || v.idx != nil || v.val != nil || sidx != nil || sval != nil {
		t.Fatal("Bind left a held field set")
	}
	if len(c.dense.free) != 1 || len(c.idx.free) != 2 || len(c.vals.free) != 1 || len(c.verts.free) != 1 {
		t.Fatalf("free lists after Bind: dense %d, idx %d, vals %d, verts %d; want 1, 2, 1, 1",
			len(c.dense.free), len(c.idx.free), len(c.vals.free), len(c.verts.free))
	}
	if len(c.dense.lent)+len(c.idx.lent)+len(c.vals.lent)+len(c.verts.lent) != 0 {
		t.Fatal("Bind kept a record of the previous solve's holds")
	}

	var w vec
	var widx []int
	var wval []int64
	c.HoldDense(&w.dense, 50)
	c.HoldVertices(&w.idx, &w.val)
	c.HoldSparse(&widx, &wval)
	if len(w.dense) != 50 || &w.dense[0] != dense {
		t.Error("the next dense hold did not get the reclaimed buffer back")
	}
	if &w.idx[:1][0] != idx || &w.val[:1][0] != val {
		t.Error("the next vertex hold did not get the reclaimed buffers back")
	}
	if &widx[:1][0] != si || &wval[:1][0] != sv {
		t.Error("the next int64 hold did not get the reclaimed buffers back")
	}
	if len(w.idx)+len(w.val)+len(widx)+len(wval) != 0 {
		t.Error("a reclaimed sparse buffer came back non-empty")
	}
}

// TestDisabledHoldKeepsNothing: a disabled (or nil) context allocates every
// hold and its Bind touches nothing.
func TestDisabledHoldKeepsNothing(t *testing.T) {
	for _, c := range []*Ctx{NewDisabled(nil), nil} {
		var v vec
		c.HoldDense(&v.dense, 9)
		c.HoldVertices(&v.idx, &v.val)
		if len(v.dense) != 9 || v.idx != nil || v.val != nil {
			t.Fatalf("disabled holds: dense %d, sparse %v %v", len(v.dense), v.idx, v.val)
		}
		c.Bind(nil)
		if v.dense == nil {
			t.Fatal("a disabled context's Bind cleared a field")
		}
	}
}
