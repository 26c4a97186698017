package dvec

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"mcmdist/internal/grid"
	"mcmdist/internal/mpi"
	"mcmdist/internal/semiring"
)

// onGrid runs fn on a pr x pc grid of simulated ranks.
func onGrid(t *testing.T, pr, pc int, fn func(g *grid.Grid) error) {
	t.Helper()
	_, err := mpi.Run(pr*pc, func(c *mpi.Comm) error {
		g, err := grid.New(c, pr, pc)
		if err != nil {
			return err
		}
		return fn(g)
	})
	if err != nil {
		t.Fatal(err)
	}
}

var gridShapes = [][2]int{{1, 1}, {2, 2}, {2, 3}, {3, 2}, {1, 4}, {4, 1}}

func TestLayoutPartitions(t *testing.T) {
	for _, shape := range gridShapes {
		for _, kind := range []Kind{RowAligned, ColAligned} {
			for _, n := range []int{0, 1, 7, 64, 100} {
				onGrid(t, shape[0], shape[1], func(g *grid.Grid) error {
					l := NewLayout(g, n, kind)
					// Every global index is owned by exactly one rank, and
					// Owner agrees with RangeAt.
					covered := 0
					for i := 0; i < g.PR; i++ {
						for j := 0; j < g.PC; j++ {
							covered += l.RangeAt(i, j).Len()
						}
					}
					if covered != n {
						return fmt.Errorf("%v %v n=%d: ranges cover %d", shape, kind, n, covered)
					}
					for x := 0; x < n; x++ {
						i, j := l.OwnerCoords(x)
						if !l.RangeAt(i, j).Contains(x) {
							return fmt.Errorf("owner of %d wrong", x)
						}
						rank, local := l.Owner(x)
						if rank != g.RankAt(i, j) || local != x-l.RangeAt(i, j).Lo {
							return fmt.Errorf("Owner(%d) inconsistent", x)
						}
						// INVERT's routing table agrees with OwnerCoords.
						ends, ranks := l.owners(nil)
						if got := ranks[ownerSlot(ends, int64(x))]; got != int64(rank) {
							return fmt.Errorf("%v %v n=%d: ownerSlot routes %d to rank %d, want %d", shape, kind, n, x, got, rank)
						}
					}
					return nil
				})
			}
		}
	}
}

func TestLayoutSlabCoversGridLine(t *testing.T) {
	onGrid(t, 2, 3, func(g *grid.Grid) error {
		// ColAligned: the union of ranges of my grid column equals my slab.
		l := NewLayout(g, 100, ColAligned)
		slab := l.SlabRange()
		covered := 0
		for i := 0; i < g.PR; i++ {
			r := l.RangeAt(i, g.MyCol)
			if r.Len() > 0 && (r.Lo < slab.Lo || r.Hi > slab.Hi) {
				return fmt.Errorf("range %v outside slab %v", r, slab)
			}
			covered += r.Len()
		}
		if covered != slab.Len() {
			return fmt.Errorf("grid column covers %d of slab %d", covered, slab.Len())
		}
		// RowAligned: union over my grid row equals my slab.
		lr := NewLayout(g, 77, RowAligned)
		slabR := lr.SlabRange()
		covered = 0
		for j := 0; j < g.PC; j++ {
			covered += lr.RangeAt(g.MyRow, j).Len()
		}
		if covered != slabR.Len() {
			return fmt.Errorf("grid row covers %d of slab %d", covered, slabR.Len())
		}
		return nil
	})
}

func TestKindString(t *testing.T) {
	if RowAligned.String() != "row" || ColAligned.String() != "col" {
		t.Fatal("kind names wrong")
	}
}

func TestDenseRoundTrip(t *testing.T) {
	global := []int64{5, -1, 7, 0, 3, 9, -1, 2}
	for _, shape := range gridShapes {
		onGrid(t, shape[0], shape[1], func(g *grid.Grid) error {
			l := NewLayout(g, len(global), ColAligned)
			d := NewDenseFrom(l, global)
			got := d.Gather(true)
			if !reflect.DeepEqual(got, global) {
				return fmt.Errorf("shape %v: gather = %v", shape, got)
			}
			return nil
		})
	}
}

// TestGatherKeepsOnlyWhereAsked pins Gather's keep argument on a 2x2 grid:
// keeping ranks get the whole vector, the others nil, every rank's meter
// reads as in an all-keep run, and a warm call in which no rank keeps
// allocates less than a quarter of the vector.
func TestGatherKeepsOnlyWhereAsked(t *testing.T) {
	const n = 1 << 14
	global := make([]int64, n)
	for i := range global {
		global[i] = int64(i*7%n) - 1
	}
	run := func(keep func(rank int) bool) [4]mpi.Meter {
		var meters [4]mpi.Meter
		onGrid(t, 2, 2, func(g *grid.Grid) error {
			rank := g.World.Rank()
			d := NewDenseFrom(NewLayout(g, n, ColAligned), global)
			got := d.Gather(keep(rank))
			if keep(rank) && !reflect.DeepEqual(got, global) {
				return fmt.Errorf("rank %d kept a wrong vector", rank)
			}
			if !keep(rank) && got != nil {
				return fmt.Errorf("rank %d did not keep but got %d entries", rank, len(got))
			}
			s := NewSparseV(d.L)
			r := d.L.MyRange()
			for gi := r.Lo; gi < r.Hi; gi++ {
				if gi%5 == 0 {
					s.Append(gi, semiring.Vertex{Parent: global[gi], Root: int64(gi)})
				}
			}
			vs := s.GatherVertices(keep(rank))
			if !keep(rank) && vs != nil {
				return fmt.Errorf("rank %d did not keep but got %d vertices", rank, len(vs))
			}
			for gi, v := range vs {
				want := semiring.Vertex{Parent: semiring.None, Root: semiring.None}
				if gi%5 == 0 {
					want = semiring.Vertex{Parent: global[gi], Root: int64(gi)}
				}
				if v != want {
					return fmt.Errorf("rank %d: vertex %d = %v, want %v", rank, gi, v, want)
				}
			}
			meters[rank] = g.World.MeterSnapshot()
			return nil
		})
		return meters
	}
	all := run(func(int) bool { return true })
	if mixed := run(func(rank int) bool { return rank == 0 || rank == 3 }); mixed != all {
		t.Fatalf("meters with keep on ranks 0 and 3 = %v, all-keep run = %v", mixed, all)
	}

	// Warm drains: the arena holds the send buffer after the first call, so
	// what a call still allocates is the collective's bookkeeping.
	const calls = 64
	var before, after runtime.MemStats
	onGrid(t, 2, 2, func(g *grid.Grid) error {
		d := NewDenseFrom(NewLayout(g, n, ColAligned), global)
		d.Gather(false)
		g.World.Barrier()
		if g.World.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		g.World.Barrier()
		for i := 0; i < calls; i++ {
			d.Gather(false)
		}
		g.World.Barrier()
		if g.World.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
		return nil
	})
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 8*n/4 {
		t.Fatalf("a warm drain on 4 ranks allocates %d bytes per call, want < %d", per, 8*n/4)
	}
}

func TestDenseAtSet(t *testing.T) {
	onGrid(t, 2, 2, func(g *grid.Grid) error {
		l := NewLayout(g, 10, RowAligned)
		d := HoldDense(l, semiring.None)
		r := l.MyRange()
		for x := r.Lo; x < r.Hi; x++ {
			if d.Local[x-r.Lo] != semiring.None {
				return fmt.Errorf("fill missing at %d", x)
			}
			d.SetAt(x, int64(x*2))
		}
		full := d.Gather(true)
		for x := 0; x < 10; x++ {
			if full[x] != int64(x*2) {
				return fmt.Errorf("full[%d] = %d", x, full[x])
			}
		}
		return nil
	})
}

// appendInt adds a nonzero at global index g of s; indices must arrive in
// strictly increasing order.
func appendInt(s *SparseInt, g int, v int64) {
	checkAppend(s.L, s.Idx, g)
	s.Idx = append(s.Idx, g)
	s.Val = append(s.Val, v)
}

// gatherInt is s as a global dense slice on every rank, with semiring.None
// where s holds no entry. Collective.
func gatherInt(s *SparseInt) []int64 {
	d := HoldDense(s.L, semiring.None)
	d.Scatter(s)
	return d.Gather(true)
}

// buildSparseInt distributes the given dense representation (0 = missing,
// Table I convention) into a SparseInt.
func buildSparseInt(l Layout, full []int64) *SparseInt {
	s := NewSparseInt(l)
	r := l.MyRange()
	for g := r.Lo; g < r.Hi; g++ {
		if full[g] != 0 {
			appendInt(s, g, full[g])
		}
	}
	return s
}

// TestTableIInd reproduces Table I's IND example: x = [3,0,2,2,0] has
// nonzeros at (0-indexed) positions 0, 2, 3.
func TestTableIInd(t *testing.T) {
	x := []int64{3, 0, 2, 2, 0}
	onGrid(t, 2, 2, func(g *grid.Grid) error {
		l := NewLayout(g, len(x), ColAligned)
		s := buildSparseInt(l, x)
		want := map[int]bool{0: true, 2: true, 3: true}
		for _, idx := range s.Idx {
			if !want[idx] {
				return fmt.Errorf("unexpected index %d", idx)
			}
			if !l.MyRange().Contains(idx) {
				return fmt.Errorf("index %d not local", idx)
			}
		}
		if s.Nnz() != 3 {
			return fmt.Errorf("nnz = %d", s.Nnz())
		}
		return nil
	})
}

// TestTableISelect reproduces the SELECT example: x = [3,0,2,2,0],
// y = [1,-1,-1,2,1], expr: y = -1 keeps only x[2], giving [0,0,2,0,0].
func TestTableISelect(t *testing.T) {
	x := []int64{3, 0, 2, 2, 0}
	y := []int64{1, -1, -1, 2, 1}
	for _, shape := range gridShapes {
		onGrid(t, shape[0], shape[1], func(g *grid.Grid) error {
			l := NewLayout(g, len(x), ColAligned)
			s := NewSparseV(l)
			r := l.MyRange()
			for gi := r.Lo; gi < r.Hi; gi++ {
				if x[gi] != 0 {
					s.Append(gi, semiring.Self(x[gi]))
				}
			}
			d := NewDenseFrom(l, y)
			s.Select(d, func(v int64) bool { return v == -1 })
			var got []int64
			for _, v := range s.GatherVertices(true) {
				got = append(got, v.Parent)
			}
			want := []int64{semiring.None, semiring.None, 2, semiring.None, semiring.None}
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("shape %v: SELECT = %v", shape, got)
			}
			return nil
		})
	}
}

// TestTableISet reproduces the SET example: overlaying x = [3,0,2,2,0] onto
// a dense vector of -1 gives [3,-1,2,2,-1].
func TestTableISet(t *testing.T) {
	x := []int64{3, 0, 2, 2, 0}
	onGrid(t, 2, 2, func(g *grid.Grid) error {
		l := NewLayout(g, len(x), ColAligned)
		s := buildSparseInt(l, x)
		d := HoldDense(l, semiring.None)
		d.Scatter(s)
		got := d.Gather(true)
		want := []int64{3, -1, 2, 2, -1}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("SET = %v", got)
		}
		return nil
	})
}

// TestTableIInvert checks INVERT on x = [3,0,2,2,0] (0-indexed values as
// targets): z[x[i]] = i. Positions 2 and 3 both hold value 2; our
// implementation keeps the first (smallest) source index, the tie-break the
// paper's prose specifies, so z = [-,-,2,0,-] with z[3] = 0 and z[2] = 2.
func TestTableIInvert(t *testing.T) {
	x := []int64{3, 0, 2, 2, 0}
	for _, shape := range gridShapes {
		onGrid(t, shape[0], shape[1], func(g *grid.Grid) error {
			l := NewLayout(g, len(x), ColAligned)
			outL := NewLayout(g, len(x), RowAligned)
			s := buildSparseInt(l, x)
			z := s.Invert(outL, nil)
			got := gatherInt(z)
			want := []int64{semiring.None, semiring.None, 2, 0, semiring.None}
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("shape %v: INVERT = %v", shape, got)
			}
			return nil
		})
	}
}

// TestTableIPrune reproduces the PRUNE example: x = [0,0,5,0,2] pruned by
// q's value set {2,4,1} keeps only the entry with value 5.
func TestTableIPrune(t *testing.T) {
	x := []semiring.Vertex{{}, {}, {Parent: 2, Root: 5}, {}, {Parent: 4, Root: 2}}
	onGrid(t, 2, 2, func(g *grid.Grid) error {
		l := NewLayout(g, len(x), RowAligned)
		s := NewSparseV(l)
		r := l.MyRange()
		for gi := r.Lo; gi < r.Hi; gi++ {
			if x[gi].Root != 0 {
				s.Append(gi, x[gi])
			}
		}
		// q's values distributed: rank 0 contributes {2,4}, rank 1 {1}.
		var local []int64
		switch g.World.Rank() {
		case 0:
			local = []int64{2, 4}
		case 1:
			local = []int64{1}
		}
		s.PruneRoots(local)
		if s.Nnz() != 1 {
			return fmt.Errorf("PRUNE kept %d entries", s.Nnz())
		}
		vs := s.GatherVertices(true)
		if vs[2].Root != 5 {
			return fmt.Errorf("PRUNE kept wrong entry: %v", vs)
		}
		return nil
	})
}

func TestInvertRoundTripOnInjective(t *testing.T) {
	// For an injective sparse vector (a permutation fragment),
	// INVERT(INVERT(x)) = x.
	full := []int64{0, 4, 0, 1, 0, 7, 2, 0} // targets, 0 = missing
	onGrid(t, 2, 2, func(g *grid.Grid) error {
		l := NewLayout(g, len(full), ColAligned)
		s := buildSparseInt(l, full)
		inv := s.Invert(NewLayout(g, 8, RowAligned), nil)
		back := inv.Invert(l, nil)
		got := gatherInt(back)
		for gi, v := range full {
			if v == 0 {
				if got[gi] != semiring.None {
					return fmt.Errorf("extra entry at %d: %d", gi, got[gi])
				}
				continue
			}
			if got[gi] != v {
				return fmt.Errorf("round trip [%d] = %d, want %d", gi, got[gi], v)
			}
		}
		return nil
	})
}

func TestInvertParentsAndRoots(t *testing.T) {
	onGrid(t, 2, 2, func(g *grid.Grid) error {
		lr := NewLayout(g, 6, RowAligned)
		lc := NewLayout(g, 6, ColAligned)
		// Row sparse vector: rows 1, 3, 4 with parents 2, 0, 2 and roots 5, 1, 3.
		data := map[int]semiring.Vertex{
			1: {Parent: 2, Root: 5},
			3: {Parent: 0, Root: 1},
			4: {Parent: 2, Root: 3},
		}
		s := NewSparseV(lr)
		r := lr.MyRange()
		for gi := r.Lo; gi < r.Hi; gi++ {
			if v, ok := data[gi]; ok {
				s.Append(gi, v)
			}
		}
		byParent := s.InvertParents(lc, nil).GatherVertices(true)
		// Parent 2 claimed by rows 1 and 4: smallest source (1) wins.
		if byParent[2].Parent != 1 || byParent[2].Root != 5 {
			return fmt.Errorf("byParent[2] = %v", byParent[2])
		}
		if byParent[0].Parent != 3 || byParent[0].Root != 1 {
			return fmt.Errorf("byParent[0] = %v", byParent[0])
		}
		if byParent[1].Parent != semiring.None {
			return fmt.Errorf("byParent[1] = %v, want missing", byParent[1])
		}

		byRoot := s.InvertRoots(lc, nil).GatherVertices(true)
		for _, root := range []int{5, 1, 3} {
			if byRoot[root].Root != int64(root) {
				return fmt.Errorf("byRoot[%d] = %v", root, byRoot[root])
			}
		}
		if byRoot[5].Parent != 1 || byRoot[1].Parent != 3 || byRoot[3].Parent != 4 {
			return fmt.Errorf("byRoot sources wrong: %v", byRoot)
		}
		return nil
	})
}

func TestSetParentsFromAndScatterParents(t *testing.T) {
	onGrid(t, 2, 2, func(g *grid.Grid) error {
		l := NewLayout(g, 5, RowAligned)
		mate := NewDenseFrom(l, []int64{9, 8, 7, 6, 5})
		s := NewSparseV(l)
		r := l.MyRange()
		for gi := r.Lo; gi < r.Hi; gi++ {
			if gi%2 == 0 {
				s.Append(gi, semiring.Self(int64(gi)))
			}
		}
		s.SetParentsFrom(mate)
		for k, gi := range s.Idx {
			if s.Val[k].Parent != mate.Local[gi-r.Lo] {
				return fmt.Errorf("parent[%d] = %d", gi, s.Val[k].Parent)
			}
			if s.Val[k].Root != int64(gi) {
				return fmt.Errorf("root[%d] changed", gi)
			}
		}
		pi := HoldDense(l, semiring.None)
		pi.ScatterParents(s)
		full := pi.Gather(true)
		for gi := 0; gi < 5; gi++ {
			want := semiring.None
			if gi%2 == 0 {
				want = 9 - int64(gi)
			}
			if full[gi] != want {
				return fmt.Errorf("pi[%d] = %d, want %d", gi, full[gi], want)
			}
		}
		return nil
	})
}

// TestRootsParentsAccessors: RootVals lists the entries' roots in index
// order, appended to the lent buffer.
func TestRootsParentsAccessors(t *testing.T) {
	onGrid(t, 1, 2, func(g *grid.Grid) error {
		l := NewLayout(g, 4, ColAligned)
		s := NewSparseV(l)
		r := l.MyRange()
		for gi := r.Lo; gi < r.Hi; gi++ {
			s.Append(gi, semiring.Vertex{Parent: int64(gi * 10), Root: int64(gi * 100)})
		}
		roots := s.RootVals([]int64{-7})
		if len(roots) != 1+len(s.Idx) || roots[0] != -7 {
			return fmt.Errorf("RootVals did not append to the lent buffer: %v", roots)
		}
		for k, gi := range s.Idx {
			if roots[1+k] != int64(gi*100) {
				return fmt.Errorf("root wrong at %d", gi)
			}
		}
		return nil
	})
}

func TestSparseWhere(t *testing.T) {
	onGrid(t, 2, 2, func(g *grid.Grid) error {
		l := NewLayout(g, 6, ColAligned)
		d := NewDenseFrom(l, []int64{-1, 5, -1, 3, -1, 8})
		s := d.SparseWhere(func(v int64) bool { return v != semiring.None }, nil)
		if s.Nnz() != 3 {
			return fmt.Errorf("nnz = %d", s.Nnz())
		}
		got := gatherInt(s)
		want := []int64{semiring.None, 5, semiring.None, 3, semiring.None, 8}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("SparseWhere = %v", got)
		}
		return nil
	})
}

func TestGatherFrom(t *testing.T) {
	onGrid(t, 2, 2, func(g *grid.Grid) error {
		l := NewLayout(g, 5, RowAligned)
		d := NewDenseFrom(l, []int64{10, 11, 12, 13, 14})
		s := NewSparseInt(l)
		r := l.MyRange()
		for gi := r.Lo; gi < r.Hi; gi++ {
			appendInt(s, gi, -99)
		}
		s.GatherFrom(d)
		for k, gi := range s.Idx {
			if s.Val[k] != int64(10+gi) {
				return fmt.Errorf("val[%d] = %d", gi, s.Val[k])
			}
		}
		return nil
	})
}

func TestAppendValidation(t *testing.T) {
	onGrid(t, 1, 1, func(g *grid.Grid) error {
		l := NewLayout(g, 5, ColAligned)
		s := NewSparseV(l)
		s.Append(1, semiring.Self(1))
		mustPanic := func(f func()) error {
			defer func() { recover() }()
			f()
			return fmt.Errorf("expected panic")
		}
		if err := mustPanic(func() { s.Append(1, semiring.Self(2)) }); err != nil {
			return fmt.Errorf("duplicate append: %v", err)
		}
		if err := mustPanic(func() { s.Append(0, semiring.Self(2)) }); err != nil {
			return fmt.Errorf("decreasing append: %v", err)
		}
		if err := mustPanic(func() { s.Append(9, semiring.Self(2)) }); err != nil {
			return fmt.Errorf("out-of-range append: %v", err)
		}
		return nil
	})
}

func TestSelectLayoutMismatchPanics(t *testing.T) {
	onGrid(t, 1, 1, func(g *grid.Grid) error {
		s := NewSparseV(NewLayout(g, 5, RowAligned))
		d := HoldDense(NewLayout(g, 5, ColAligned), 0)
		defer func() {
			if recover() == nil {
				panic("expected panic")
			}
		}()
		s.Select(d, func(int64) bool { return true })
		return nil
	})
}

// TestInvertMeterUsesAllToAll verifies INVERT's communication is metered as
// a personalized all-to-all over the whole grid (latency alpha*p per the
// paper's Section IV-B analysis).
func TestInvertMeterUsesAllToAll(t *testing.T) {
	const pr, pc = 2, 2
	w, err := mpi.Run(pr*pc, func(c *mpi.Comm) error {
		g, err := grid.New(c, pr, pc)
		if err != nil {
			return err
		}
		l := NewLayout(g, 40, ColAligned)
		s := NewSparseInt(l)
		r := l.MyRange()
		for gi := r.Lo; gi < r.Hi; gi++ {
			appendInt(s, gi, int64(39-gi))
		}
		s.Invert(NewLayout(g, 40, RowAligned), nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < pr*pc; rank++ {
		if m := w.RankMeter(rank); m.Msgs != pr*pc-1 {
			t.Errorf("rank %d msgs = %d, want %d (all-to-all)", rank, m.Msgs, pr*pc-1)
		}
	}
}

func TestCloneAndFilter(t *testing.T) {
	onGrid(t, 2, 2, func(g *grid.Grid) error {
		l := NewLayout(g, 8, ColAligned)
		s := NewSparseInt(l)
		r := l.MyRange()
		for gi := r.Lo; gi < r.Hi; gi++ {
			appendInt(s, gi, int64(gi))
		}
		cl := s.Clone(nil)
		if len(cl.Val) > 0 {
			cl.Val[0] = -99
			if s.Val[0] == -99 {
				return fmt.Errorf("clone shares storage")
			}
		}
		even := s.Filter(func(v int64) bool { return v%2 == 0 }, nil)
		for _, v := range even.Val {
			if v%2 != 0 {
				return fmt.Errorf("filter kept odd value %d", v)
			}
		}
		if even.Nnz() != 4 {
			return fmt.Errorf("filter kept %d, want 4", even.Nnz())
		}
		return nil
	})
}

// TestInvertKeepsSmallestSourceProperty: on vectors with many collisions,
// INVERT must deterministically keep the smallest source index.
func TestInvertKeepsSmallestSourceProperty(t *testing.T) {
	onGrid(t, 2, 2, func(g *grid.Grid) error {
		l := NewLayout(g, 30, ColAligned)
		outL := NewLayout(g, 4, RowAligned)
		s := NewSparseInt(l)
		r := l.MyRange()
		for gi := r.Lo; gi < r.Hi; gi++ {
			appendInt(s, gi, int64(gi%4)) // heavy collisions on 4 targets
		}
		inv := s.Invert(outL, nil)
		got := gatherInt(inv)
		for tgt := 0; tgt < 4; tgt++ {
			if got[tgt] != int64(tgt) { // smallest source with gi%4==tgt is tgt itself
				return fmt.Errorf("target %d kept source %d, want %d", tgt, got[tgt], tgt)
			}
		}
		return nil
	})
}

func TestInvertPanicsOnOutOfRangeTarget(t *testing.T) {
	onGrid(t, 1, 1, func(g *grid.Grid) error {
		l := NewLayout(g, 5, ColAligned)
		s := NewSparseInt(l)
		appendInt(s, 0, 99) // target outside [0, 5)
		defer func() {
			if recover() == nil {
				panic("expected panic")
			}
		}()
		s.Invert(NewLayout(g, 5, RowAligned), nil)
		return nil
	})
}
