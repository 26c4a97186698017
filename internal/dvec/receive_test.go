package dvec

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"mcmdist/internal/grid"
	"mcmdist/internal/mpi"
	"mcmdist/internal/semiring"
)

// The sort-based receives below are the reference implementations the
// scatter-reduce receive replaced: route each record with Layout.Owner, sort
// the received union by (index, second field), then keep the first record of
// each index. Every production receive must reproduce them entry for entry
// and meter for meter.

// sortRecords sorts buf, viewed as stride-length records, by first field,
// ties by second.
func sortRecords(buf []int64, stride int) {
	recs := make([][]int64, len(buf)/stride)
	for i := range recs {
		recs[i] = slices.Clone(buf[i*stride : (i+1)*stride])
	}
	sort.Slice(recs, func(a, b int) bool {
		if recs[a][0] != recs[b][0] {
			return recs[a][0] < recs[b][0]
		}
		return stride > 1 && recs[a][1] < recs[b][1]
	})
	for i, r := range recs {
		copy(buf[i*stride:], r)
	}
}

func oracleExchange(l, outL Layout, records []int64, stride int) []int64 {
	c := l.G.World
	parts := make([][]int64, c.Size())
	for off := 0; off < len(records); off += stride {
		rank, _ := outL.Owner(int(records[off]))
		parts[rank] = append(parts[rank], records[off:off+stride]...)
	}
	c.AddWork(len(records) / stride)
	return flatAlltoall(c, l.G.RT, parts, len(records))
}

func oracleInvert(s *SparseInt, outL Layout) *SparseInt {
	var records []int64
	for k, g := range s.Idx {
		records = append(records, s.Val[k], int64(g))
	}
	flat := oracleExchange(s.L, outL, records, 2)
	sortRecords(flat, 2)
	out := NewSparseInt(outL)
	for off := 0; off < len(flat); off += 2 {
		if off > 0 && flat[off-2] == flat[off] {
			continue
		}
		out.Idx = append(out.Idx, int(flat[off]))
		out.Val = append(out.Val, flat[off+1])
	}
	s.L.G.World.AddWork(len(flat) / 2)
	return out
}

func oracleInvertVertex(s *SparseV, outL Layout, byRoot bool) *SparseV {
	var records []int64
	for k, g := range s.Idx {
		tgt := s.Val[k].Parent
		if byRoot {
			tgt = s.Val[k].Root
		}
		records = append(records, tgt, int64(g), s.Val[k].Root)
	}
	flat := oracleExchange(s.L, outL, records, 3)
	sortRecords(flat, 3)
	out := NewSparseV(outL)
	for off := 0; off < len(flat); off += 3 {
		if off > 0 && flat[off-3] == flat[off] {
			continue
		}
		out.Idx = append(out.Idx, int(flat[off]))
		out.Val = append(out.Val, semiring.Vertex{Parent: flat[off+1], Root: flat[off+2]})
	}
	s.L.G.World.AddWork(len(flat) / 3)
	return out
}

func oracleRedistribute(s *SparseInt, outL Layout) *SparseInt {
	c := s.L.G.World
	parts := make([][]int64, c.Size())
	for k, g := range s.Idx {
		rank, _ := outL.Owner(g)
		parts[rank] = append(parts[rank], int64(g), s.Val[k])
	}
	flat := flatAlltoall(c, s.L.G.RT, parts, 2*len(s.Idx))
	sortRecords(flat, 2)
	out := NewSparseInt(outL)
	for off := 0; off < len(flat); off += 2 {
		out.Idx = append(out.Idx, int(flat[off]))
		out.Val = append(out.Val, flat[off+1])
	}
	c.AddWork(len(s.Idx) + len(flat)/2)
	return out
}

// metered runs fn and returns its result with the rank's meter delta.
func metered[T any](c *mpi.Comm, fn func() T) (T, mpi.Meter) {
	before := c.MeterSnapshot()
	out := fn()
	return out, c.MeterSnapshot().Sub(before)
}

func sameInt(got, want *SparseInt) error {
	if !slices.Equal(got.Idx, want.Idx) || !slices.Equal(got.Val, want.Val) {
		return fmt.Errorf("got %v:%v, want %v:%v", got.Idx, got.Val, want.Idx, want.Val)
	}
	return nil
}

func sameV(got, want *SparseV) error {
	if !slices.Equal(got.Idx, want.Idx) || !slices.Equal(got.Val, want.Val) {
		return fmt.Errorf("got %v:%v, want %v:%v", got.Idx, got.Val, want.Idx, want.Val)
	}
	return nil
}

// TestReceiveMatchesSortOracle runs INVERT (int and both vertex flavors) and
// redistribute against the sort-based references on every grid shape,
// thread count and overlap setting. Targets draw from a short range, so most
// are claimed by several sources, and every third rank contributes nothing.
func TestReceiveMatchesSortOracle(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {2, 3}, {3, 3}} {
		for threads := 1; threads <= 4; threads++ {
			for _, overlap := range []bool{true, false} {
				for _, n := range []int{5, 37, 300} {
					name := fmt.Sprintf("%dx%d t%d overlap=%v n=%d", shape[0], shape[1], threads, overlap, n)
					checkReceives(t, name, shape[0], shape[1], threads, overlap, n)
				}
			}
		}
	}
}

func checkReceives(t *testing.T, name string, pr, pc, threads int, overlap bool, n int) {
	t.Helper()
	targets := max(1, n/4)
	_, err := mpi.Run(pr*pc, func(c *mpi.Comm) error {
		g, err := grid.New(c, pr, pc)
		if err != nil {
			return err
		}
		g.RT.EnsureThreads(threads)
		defer g.RT.Close()
		g.RT.SetOverlap(overlap)
		rng := rand.New(rand.NewSource(int64(1000*n + c.Rank())))
		empty := c.Rank()%3 == 1

		colL, rowL := NewLayout(g, n, ColAligned), NewLayout(g, n, RowAligned)
		tgtL := NewLayout(g, targets, RowAligned)
		xi := NewSparseInt(colL)
		xv := NewSparseV(rowL)
		for gi := colL.MyRange().Lo; gi < colL.MyRange().Hi && !empty; gi++ {
			if rng.Intn(3) > 0 {
				xi.Append(gi, int64(rng.Intn(targets)))
			}
		}
		for gi := rowL.MyRange().Lo; gi < rowL.MyRange().Hi && !empty; gi++ {
			if rng.Intn(3) > 0 {
				xv.Append(gi, semiring.Vertex{Parent: int64(rng.Intn(targets)), Root: int64(rng.Intn(targets))})
			}
		}

		check := func(op string, gotM, wantM mpi.Meter, err error) error {
			if err != nil {
				return fmt.Errorf("%s rank %d %s: %v", name, c.Rank(), op, err)
			}
			if gotM != wantM {
				return fmt.Errorf("%s rank %d %s: meter %+v, want %+v", name, c.Rank(), op, gotM, wantM)
			}
			return nil
		}
		tgtC := NewLayout(g, targets, ColAligned)
		gotI, mI := metered(c, func() *SparseInt { return xi.Invert(tgtL) })
		wantI, wI := metered(c, func() *SparseInt { return oracleInvert(xi, tgtL) })
		if err := check("Invert", mI, wI, sameInt(gotI, wantI)); err != nil {
			return err
		}
		gotP, mP := metered(c, func() *SparseV { return xv.InvertParents(tgtC) })
		wantP, wP := metered(c, func() *SparseV { return oracleInvertVertex(xv, tgtC, false) })
		if err := check("InvertParents", mP, wP, sameV(gotP, wantP)); err != nil {
			return err
		}
		gotR, mR := metered(c, func() *SparseV { return xv.InvertRoots(tgtC) })
		wantR, wR := metered(c, func() *SparseV { return oracleInvertVertex(xv, tgtC, true) })
		if err := check("InvertRoots", mR, wR, sameV(gotR, wantR)); err != nil {
			return err
		}
		gotD, mD := metered(c, func() *SparseInt { return xi.Redistribute(rowL) })
		wantD, wD := metered(c, func() *SparseInt { return oracleRedistribute(xi, rowL) })
		return check("Redistribute", mD, wD, sameInt(gotD, wantD))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReceivePanicsOnOutOfRangeIndex feeds the receive a record for an index
// just past the rank's range, with a scratch left longer than the range by an
// earlier, wider receive: the explicit range check must catch what the
// scratch's own bounds check would not.
func TestReceivePanicsOnOutOfRangeIndex(t *testing.T) {
	onGrid(t, 2, 2, func(g *grid.Grid) error {
		wide, narrow := NewLayout(g, 400, RowAligned), NewLayout(g, 40, RowAligned)
		ReceiveInt(wide, nil, Sum) // grows the rank's receive scratch to 100
		r := narrow.MyRange()
		for _, idx := range []int{r.Hi, r.Lo - 1} {
			for _, op := range []Reduce{KeepMin, Sum, Store} {
				msg := func() (msg string) {
					defer func() { msg = fmt.Sprint(recover()) }()
					ReceiveInt(narrow, []int64{int64(r.Lo), 1, int64(idx), 2}, op)
					return ""
				}()
				if !strings.HasPrefix(msg, "dvec: ") {
					return fmt.Errorf("index %d outside %v, op %d: panic %q, want a dvec: message", idx, r, op, msg)
				}
			}
		}
		return nil
	})
}
