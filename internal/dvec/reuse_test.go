package dvec

// Tests of the in-place contract: SELECT and Split filter their receiver,
// and the receives write into a dead vector the caller lends.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mcmdist/internal/grid"
	"mcmdist/internal/mpi"
	"mcmdist/internal/semiring"
)

// levelVector returns a row vector with an entry at every third local index
// and a dense vector over the same layout that is None at every other one
// of them, so a SELECT against it keeps about half.
func levelVector(g *grid.Grid, n int) (*SparseV, *Dense) {
	l := NewLayout(g, n, RowAligned)
	s := NewSparseV(l)
	d := NewDense(l, semiring.None)
	r := l.MyRange()
	for gi := r.Lo; gi < r.Hi; gi += 3 {
		s.Append(gi, semiring.Vertex{Parent: int64(gi / 2), Root: int64(gi % 7)})
		if gi%2 == 0 {
			d.SetAt(gi, int64(gi))
		}
	}
	return s, d
}

// restore copies src's entries into dst's arrays.
func restore(dst, src *SparseV) {
	dst.L = src.L
	dst.Idx = append(dst.Idx[:0], src.Idx...)
	dst.Val = append(dst.Val[:0], src.Val...)
}

func unsetV(v int64) bool { return v == semiring.None }

// TestSplitMatchesTwoSelects: Split leaves in s what SELECT(y, !pred) keeps
// and moves into dst what SELECT(y, pred) keeps, in index order, dropping
// dst's earlier entries, and charges the work of both SELECTs.
func TestSplitMatchesTwoSelects(t *testing.T) {
	for _, shape := range gridShapes {
		onGrid(t, shape[0], shape[1], func(g *grid.Grid) error {
			kept, d := levelVector(g, 200)
			want, wantOut := NewSparseV(kept.L), NewSparseV(kept.L)
			restore(want, kept)
			restore(wantOut, kept)
			_, wSel := metered(g.World, func() struct{} {
				want.Select(d, func(v int64) bool { return v != semiring.None })
				wantOut.Select(d, unsetV)
				return struct{}{}
			})

			s := NewSparseV(kept.L)
			restore(s, kept)
			dst := &SparseV{Idx: make([]int, 500), Val: make([]semiring.Vertex, 500)}
			_, wSplit := metered(g.World, func() struct{} { s.Split(d, unsetV, dst); return struct{}{} })
			if err := sameV(s, want); err != nil {
				return fmt.Errorf("grid %v kept: %v", shape, err)
			}
			if err := sameV(dst, wantOut); err != nil {
				return fmt.Errorf("grid %v moved: %v", shape, err)
			}
			if !dst.L.Same(kept.L) {
				return fmt.Errorf("grid %v: dst layout %+v, want %+v", shape, dst.L, kept.L)
			}
			if wSplit != wSel {
				return fmt.Errorf("grid %v: Split meters %+v, two SELECTs %+v", shape, wSplit, wSel)
			}
			return nil
		})
	}
}

// TestFiltersAllocateNothing: SELECT compacts its receiver, and Split and
// the receive fill a warm dst, without one allocation.
func TestFiltersAllocateNothing(t *testing.T) {
	onGrid(t, 1, 1, func(g *grid.Grid) error {
		kept, d := levelVector(g, 3000)
		s, dst := NewSparseV(kept.L), NewSparseV(kept.L)

		allocs := map[string]float64{
			"Select": testing.AllocsPerRun(20, func() {
				restore(s, kept)
				s.Select(d, unsetV)
			}),
			"Split": testing.AllocsPerRun(20, func() {
				restore(s, kept)
				s.Split(d, unsetV, dst)
			}),
		}
		outL := NewLayout(g, 3000, ColAligned)
		stream := make([]int64, 0, 3*kept.LocalNnz())
		for k, gi := range kept.Idx {
			stream = append(stream, int64(gi), kept.Val[k].Parent, kept.Val[k].Root)
		}
		sc, k, _ := receive(outL, streamsOf(stream), 3, semiring.MinParent.Combine)
		out := vertices(nil, outL, sc, k)
		allocs["vertices"] = testing.AllocsPerRun(20, func() { vertices(out, outL, sc, k) })
		for name, n := range allocs {
			if n != 0 {
				return fmt.Errorf("%s: %v allocations per run, want 0", name, n)
			}
		}
		return nil
	})
}

// TestReceiveIntoStaleDst: a receive into a dst that held more entries, of
// another layout, gives exactly what a receive into nil gives, at the same
// meters, and returns dst itself.
func TestReceiveIntoStaleDst(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {2, 3}} {
		_, err := mpi.Run(shape[0]*shape[1], func(c *mpi.Comm) error {
			g, err := grid.New(c, shape[0], shape[1])
			if err != nil {
				return err
			}
			const n, targets = 300, 40
			rng := rand.New(rand.NewSource(int64(c.Rank())))
			rowL, tgtL := NewLayout(g, n, RowAligned), NewLayout(g, targets, ColAligned)
			xv := NewSparseV(rowL)
			for gi := rowL.MyRange().Lo; gi < rowL.MyRange().Hi; gi++ {
				if rng.Intn(3) > 0 {
					xv.Append(gi, semiring.Vertex{Parent: int64(rng.Intn(targets)), Root: int64(rng.Intn(targets))})
				}
			}
			stale := func() *SparseV {
				s := NewSparseV(rowL)
				for gi := rowL.MyRange().Lo; gi < rowL.MyRange().Hi; gi++ {
					s.Append(gi, semiring.Vertex{Parent: -7, Root: -9})
				}
				return s
			}
			// A slice, not a map: every rank must run the collectives in
			// one order.
			for _, tc := range []struct {
				name string
				inv  func(dst *SparseV) *SparseV
			}{
				{"InvertParents", func(dst *SparseV) *SparseV { return xv.InvertParents(tgtL, dst) }},
				{"InvertRoots", func(dst *SparseV) *SparseV { return xv.InvertRoots(tgtL, dst) }},
			} {
				name, inv := tc.name, tc.inv
				want, wM := metered(c, func() *SparseV { return inv(nil) })
				dst := stale()
				got, gM := metered(c, func() *SparseV { return inv(dst) })
				if got != dst {
					return fmt.Errorf("grid %v %s: result is not dst", shape, name)
				}
				if err := sameV(got, want); err != nil {
					return fmt.Errorf("grid %v rank %d %s: %v", shape, c.Rank(), name, err)
				}
				if !got.L.Same(tgtL) {
					return fmt.Errorf("grid %v %s: layout %+v, want %+v", shape, name, got.L, tgtL)
				}
				if gM != wM {
					return fmt.Errorf("grid %v %s: meters %+v, want %+v", shape, name, gM, wM)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestReceiverAsDstPanics: a vector cannot be its own INVERT or Split
// destination.
func TestReceiverAsDstPanics(t *testing.T) {
	onGrid(t, 1, 1, func(g *grid.Grid) error {
		s, d := levelVector(g, 30)
		for name, call := range map[string]func(){
			"InvertParents": func() { s.InvertParents(s.L, s) },
			"InvertRoots":   func() { s.InvertRoots(s.L, s) },
			"Split":         func() { s.Split(d, unsetV, s) },
		} {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				call()
				return ""
			}()
			if !strings.HasPrefix(msg, "dvec: ") {
				return fmt.Errorf("%s into its receiver: panic %q, want a dvec: message", name, msg)
			}
		}
		return nil
	})
}
