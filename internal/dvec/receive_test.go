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
	"mcmdist/internal/rt"
	"mcmdist/internal/semiring"
)

// The sort-based receives below are the reference implementations the
// scatter-reduce receive replaced: route each record with Layout.Owner, sort
// the received union by (index, second field), then keep the first record of
// each index. Every production receive must reproduce them entry for entry
// and meter for meter.

// flatAlltoall routes parts through a split-phase personalized all-to-all
// into one flat arena buffer, for the references to sort.
func flatAlltoall(c *mpi.Comm, ctx *rt.Ctx, parts [][]int64, hint int) []int64 {
	rq := c.IAlltoallvParts(parts)
	flat := rq.Drain(ctx.GetInts(hint))
	rq.Finish()
	return flat
}

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

// TestReceiveMatchesSortOracle runs INVERT (int and both vertex flavors)
// against the sort-based references on every grid shape and thread count.
// Targets draw from a short range, so most are claimed by several sources,
// and every third rank contributes nothing.
func TestReceiveMatchesSortOracle(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {2, 3}, {3, 3}} {
		for threads := 1; threads <= 4; threads++ {
			for _, n := range []int{5, 37, 300} {
				name := fmt.Sprintf("%dx%d t%d n=%d", shape[0], shape[1], threads, n)
				checkReceives(t, name, shape[0], shape[1], threads, n)
			}
		}
	}
}

func checkReceives(t *testing.T, name string, pr, pc, threads int, n int) {
	t.Helper()
	targets := max(1, n/4)
	_, err := mpi.Run(pr*pc, func(c *mpi.Comm) error {
		g, err := grid.New(c, pr, pc)
		if err != nil {
			return err
		}
		g.RT.EnsureThreads(threads)
		defer g.RT.Close()
		rng := rand.New(rand.NewSource(int64(1000*n + c.Rank())))
		empty := c.Rank()%3 == 1

		colL, rowL := NewLayout(g, n, ColAligned), NewLayout(g, n, RowAligned)
		tgtL := NewLayout(g, targets, RowAligned)
		xi := NewSparseInt(colL)
		xv := NewSparseV(rowL)
		for gi := colL.MyRange().Lo; gi < colL.MyRange().Hi && !empty; gi++ {
			if rng.Intn(3) > 0 {
				appendInt(xi, gi, int64(rng.Intn(targets)))
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
		gotP, mP := metered(c, func() *SparseV { return xv.InvertParents(tgtC, nil) })
		wantP, wP := metered(c, func() *SparseV { return oracleInvertVertex(xv, tgtC, false) })
		if err := check("InvertParents", mP, wP, sameV(gotP, wantP)); err != nil {
			return err
		}
		gotR, mR := metered(c, func() *SparseV { return xv.InvertRoots(tgtC, nil) })
		wantR, wR := metered(c, func() *SparseV { return oracleInvertVertex(xv, tgtC, true) })
		return check("InvertRoots", mR, wR, sameV(gotR, wantR))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// streamsOf returns a next function that yields streams in order, the way
// a PartsRequest yields them in arrival order.
func streamsOf(streams ...[]int64) func() (int, []int64, bool) {
	i := 0
	return func() (int, []int64, bool) {
		if i == len(streams) {
			return -1, nil, false
		}
		i++
		return i - 1, streams[i-1], true
	}
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(slices.Clone(p[:at]), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestReceiveDuplicatesAcrossStreams scatter-reduces (index, parent, root)
// streams whose rows repeat across senders, in every arrival order of the
// streams and under every AddOp. The result must equal a serial Combine
// over the streams in sender order, entry for entry, with the indices
// ascending.
func TestReceiveDuplicatesAcrossStreams(t *testing.T) {
	streams := [][]int64{
		{1, 5, 100, 4, 9, 400},
		{7, 2, 700, 1, 3, 101},
		nil,
		{4, 1, 401, 9, 6, 900, 1, 8, 102},
		{},
	}
	onGrid(t, 1, 1, func(g *grid.Grid) error {
		outL := NewLayout(g, 10, RowAligned)
		for _, op := range []semiring.AddOp{semiring.MinParent, semiring.RandRoot, semiring.RandParent, semiring.MinRoot} {
			want := map[int]semiring.Vertex{}
			for _, s := range streams {
				for o := 0; o < len(s); o += 3 {
					v := semiring.Vertex{Parent: s[o+1], Root: s[o+2]}
					if held, ok := want[int(s[o])]; ok {
						v = op.Combine(held, v)
					}
					want[int(s[o])] = v
				}
			}
			for _, perm := range permutations(len(streams)) {
				arrived := make([][]int64, len(perm))
				for i, s := range perm {
					arrived[i] = streams[s]
				}
				sc, k, n := receive(outL, streamsOf(arrived...), 3, op.Combine)
				out := vertices(nil, outL, sc, k)
				if n != 7 || k != len(want) || len(out.Idx) != len(want) {
					return fmt.Errorf("%v order %v: %d records, %d touched, %d entries; want 7, %d",
						op, perm, n, k, len(out.Idx), len(want))
				}
				for i, gi := range out.Idx {
					if i > 0 && out.Idx[i-1] >= gi {
						return fmt.Errorf("%v order %v: indices %v not ascending", op, perm, out.Idx)
					}
					if out.Val[i] != want[gi] {
						return fmt.Errorf("%v order %v: idx %d = %v, want %v", op, perm, gi, out.Val[i], want[gi])
					}
				}
			}
		}
		return nil
	})
}

// TestReceiveEmptyStreams: nil and empty streams touch nothing, both fed
// directly and through a real exchange in which no rank sends anything.
func TestReceiveEmptyStreams(t *testing.T) {
	onGrid(t, 1, 1, func(g *grid.Grid) error {
		outL := NewLayout(g, 5, RowAligned)
		sc, k, n := receive(outL, streamsOf(nil, []int64{}, nil), 3, semiring.MinParent.Combine)
		if out := vertices(nil, outL, sc, k); k != 0 || n != 0 || out.LocalNnz() != 0 {
			return fmt.Errorf("empty streams: %d touched, %d records, %d entries", k, n, out.LocalNnz())
		}
		return nil
	})
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {1, 3}} {
		onGrid(t, shape[0], shape[1], func(g *grid.Grid) error {
			parts := make([][]int64, g.PC)
			parts[0] = []int64{}
			out := ReceiveV(NewLayout(g, 7, RowAligned), g.Row.IAlltoallvParts(parts), semiring.MinParent, nil)
			if out.LocalNnz() != 0 {
				return fmt.Errorf("grid %v rank %d: %d entries from empty parts", shape, g.World.Rank(), out.LocalNnz())
			}
			return nil
		})
	}
}

// TestReceivePanicsOnOutOfRangeIndex feeds the receive a record for an index
// just past the rank's range, with a scratch left longer than the range by an
// earlier, wider receive: the explicit range check must catch what the
// scratch's own bounds check would not, in the int receive and in the
// vertex receive of the fold and INVERT alike.
func TestReceivePanicsOnOutOfRangeIndex(t *testing.T) {
	onGrid(t, 2, 2, func(g *grid.Grid) error {
		wide, narrow := NewLayout(g, 400, RowAligned), NewLayout(g, 40, RowAligned)
		ReceiveInt(wide, nil) // grows the rank's receive scratch to 100
		r := narrow.MyRange()
		for _, idx := range []int{r.Hi, r.Lo - 1} {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				ReceiveInt(narrow, []int64{int64(r.Lo), 1, int64(idx), 2})
				return ""
			}()
			if !strings.HasPrefix(msg, "dvec: ") {
				return fmt.Errorf("index %d outside %v: panic %q, want a dvec: message", idx, r, msg)
			}
			for _, op := range []semiring.AddOp{semiring.MinParent, semiring.RandRoot, semiring.RandParent, semiring.MinRoot} {
				msg := func() (msg string) {
					defer func() { msg = fmt.Sprint(recover()) }()
					receive(narrow, streamsOf([]int64{int64(r.Lo), 1, 1}, []int64{int64(idx), 2, 2}), 3, op.Combine)
					return ""
				}()
				if !strings.HasPrefix(msg, "dvec: ") {
					return fmt.Errorf("index %d outside %v, %v: panic %q, want a dvec: message", idx, r, op, msg)
				}
			}
		}
		return nil
	})
}
