package dvec

import (
	"fmt"
	"slices"

	"mcmdist/internal/mpi"
	"mcmdist/internal/rt"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

// flatAllgather routes data through a split-phase allgather into one flat
// arena buffer (PRUNE's pattern): arrived payloads are copied out while
// stragglers are still sending, hiding the copy-out behind the wait.
// Consumers treat the union as a set, so arrival order is harmless.
func flatAllgather(c *mpi.Comm, ctx *rt.Ctx, data []int64, hint int) []int64 {
	rq := c.IAllgathervParts(data)
	flat := rq.Drain(ctx.GetInts(hint))
	rq.Wait()
	return flat
}

// SparseInt is one rank's piece of a distributed sparse vector with int64
// values. Idx holds global indices in strictly increasing order, all within
// MyRange().
type SparseInt struct {
	L   Layout
	Idx []int
	Val []int64
}

// SparseV is one rank's piece of a distributed sparse vector of VERTEX
// (parent, root) pairs — the MS-BFS frontier representation.
type SparseV struct {
	L   Layout
	Idx []int
	Val []semiring.Vertex
}

// NewSparseInt returns an empty sparse vector with the given layout.
func NewSparseInt(l Layout) *SparseInt { return &SparseInt{L: l} }

// NewSparseV returns an empty sparse vector with the given layout.
func NewSparseV(l Layout) *SparseV { return &SparseV{L: l} }

// HoldSparseInt returns an empty sparse vector with the given layout whose
// arrays the rank's runtime context holds for the solve, as HoldDense's.
func HoldSparseInt(l Layout) *SparseInt {
	s := &SparseInt{L: l}
	l.G.RT.HoldSparse(&s.Idx, &s.Val)
	return s
}

// HoldSparseV is HoldSparseInt for a VERTEX vector.
func HoldSparseV(l Layout) *SparseV {
	s := &SparseV{L: l}
	l.G.RT.HoldVertices(&s.Idx, &s.Val)
	return s
}

func checkAppend(l Layout, idx []int, g int) {
	if !l.MyRange().Contains(g) {
		panic(fmt.Sprintf("dvec: append index %d outside local range", g))
	}
	if n := len(idx); n > 0 && idx[n-1] >= g {
		panic(fmt.Sprintf("dvec: append index %d not increasing after %d", g, idx[n-1]))
	}
}

// Append adds a nonzero at global index g; indices must arrive in strictly
// increasing order.
func (s *SparseV) Append(g int, v semiring.Vertex) {
	checkAppend(s.L, s.Idx, g)
	s.Idx = append(s.Idx, g)
	s.Val = append(s.Val, v)
}

// LocalNnz returns the number of locally stored nonzeros.
func (s *SparseV) LocalNnz() int { return len(s.Idx) }

// Nnz returns the global number of nonzeros. Collective.
func (s *SparseInt) Nnz() int {
	return int(s.L.G.World.Allreduce(mpi.OpSum, int64(len(s.Idx))))
}

// Nnz returns the global number of nonzeros. Collective.
func (s *SparseV) Nnz() int {
	return int(s.L.G.World.Allreduce(mpi.OpSum, int64(len(s.Idx))))
}

// Select keeps the entries whose aligned dense value satisfies pred — the
// Table I SELECT primitive, communication-free because x and y share a
// layout. It compacts s in place and allocates nothing.
func (s *SparseV) Select(y *Dense, pred func(int64) bool) {
	if !s.L.Same(y.L) {
		panic("dvec: SELECT layout mismatch")
	}
	lo := s.L.MyRange().Lo
	n := 0
	for k, g := range s.Idx {
		if pred(y.Local[g-lo]) {
			s.Idx[n], s.Val[n] = g, s.Val[k]
			n++
		}
	}
	s.L.G.World.AddWork(len(s.Idx))
	s.Idx, s.Val = s.Idx[:n], s.Val[:n]
}

// Split moves the entries whose aligned dense value satisfies pred into dst
// and keeps the others in s, compacted in place: the two complementary
// SELECTs of Algorithm 2's Steps 2-4 (unmatched rows to uf_r, matched rows
// stay in f_r) in one pass. dst's previous entries are dropped and its
// arrays reused. It charges the work of the two SELECTs it replaces. Local.
func (s *SparseV) Split(y *Dense, pred func(int64) bool, dst *SparseV) {
	checkDst(s, dst)
	if !s.L.Same(y.L) {
		panic("dvec: SELECT layout mismatch")
	}
	lo := s.L.MyRange().Lo
	dst.L, dst.Idx, dst.Val = s.L, dst.Idx[:0], dst.Val[:0]
	n := 0
	for k, g := range s.Idx {
		if pred(y.Local[g-lo]) {
			dst.Idx = append(dst.Idx, g)
			dst.Val = append(dst.Val, s.Val[k])
		} else {
			s.Idx[n], s.Val[n] = g, s.Val[k]
			n++
		}
	}
	s.L.G.World.AddWork(2 * len(s.Idx))
	s.Idx, s.Val = s.Idx[:n], s.Val[:n]
}

// Scatter stores each sparse value into the aligned dense vector — the
// Table I SET(y, x) primitive (dense updated by sparse). Local.
func (d *Dense) Scatter(x *SparseInt) {
	if !d.L.Same(x.L) {
		panic("dvec: SET layout mismatch")
	}
	lo := d.L.MyRange().Lo
	for k, g := range x.Idx {
		d.Local[g-lo] = x.Val[k]
	}
	d.L.G.World.AddWork(len(x.Idx))
}

// ScatterParents stores each entry's parent into the aligned dense vector,
// the SET(π_r, PARENT(f_r)) step of Algorithm 2. Local.
func (d *Dense) ScatterParents(x *SparseV) {
	if !d.L.Same(x.L) {
		panic("dvec: SET layout mismatch")
	}
	lo := d.L.MyRange().Lo
	for k, g := range x.Idx {
		d.Local[g-lo] = x.Val[k].Parent
	}
	d.L.G.World.AddWork(len(x.Idx))
}

// GatherFrom replaces each sparse value with the aligned dense value at the
// same index — the SET(v_c, π_r) flavor used by AUGMENT (Algorithm 3). Local.
func (s *SparseInt) GatherFrom(y *Dense) {
	if !s.L.Same(y.L) {
		panic("dvec: SET layout mismatch")
	}
	lo := s.L.MyRange().Lo
	for k, g := range s.Idx {
		s.Val[k] = y.Local[g-lo]
	}
	s.L.G.World.AddWork(len(s.Idx))
}

// SetParentsFrom rewrites each entry's parent from the aligned dense vector
// — the SET(PARENT(f_r), mate_r) step building the next frontier. Local.
func (s *SparseV) SetParentsFrom(y *Dense) {
	if !s.L.Same(y.L) {
		panic("dvec: SET layout mismatch")
	}
	lo := s.L.MyRange().Lo
	for k, g := range s.Idx {
		s.Val[k].Parent = y.Local[g-lo]
	}
	s.L.G.World.AddWork(len(s.Idx))
}

// RootVals appends the entries' root values to buf and returns it — the
// buffer-reusing counterpart of Roots().Val for the PRUNE call sites, which
// only need the flat root list and can lend an arena buffer for it.
func (s *SparseV) RootVals(buf []int64) []int64 {
	for _, v := range s.Val {
		buf = append(buf, v.Root)
	}
	return buf
}

// scatterReduce folds one stream of stride-length records (index, value[,
// root]) into sc, the dense scratch over r, combining the records of one
// index with combine, and returns how many offsets the stream touched first.
// It panics on an index outside r.
func scatterReduce(sc *rt.Scratch, r spmat.Block, stream []int64, stride int, combine func(held, in semiring.Vertex) semiring.Vertex) int {
	k := 0
	for o := 0; o < len(stream); o += stride {
		off := int(stream[o]) - r.Lo
		if uint(off) >= uint(r.Len()) {
			panic(fmt.Sprintf("dvec: received index %d outside local range [%d,%d)", stream[o], r.Lo, r.Hi))
		}
		v := semiring.Vertex{Parent: stream[o+1]}
		if stride == 3 {
			v.Root = stream[o+2]
		}
		if !sc.Has(off) {
			sc.Set(off, v)
			k++
		} else {
			sc.Val[off] = combine(sc.Val[off], v)
		}
	}
	return k
}

// receive is the scatter-reduce receive of the fold and of INVERT: it
// drains the streams next yields into the rank's dense scratch over
// outL.MyRange(), each as it arrives, so the work hides behind the wait for
// stragglers. It returns the scratch, the number k of distinct offsets
// touched and the number of records received. The scratch's Next walks the
// touched offsets in increasing order, so the receive costs O(records +
// n/64): nothing is sorted, merged or copied out first.
func receive(outL Layout, next func() (int, []int64, bool), stride int, combine func(held, in semiring.Vertex) semiring.Vertex) (*rt.Scratch, int, int) {
	r := outL.MyRange()
	sc := outL.G.RT.Scratch("dvec.receive", r.Len())
	k, n := 0, 0
	for {
		_, stream, ok := next()
		if !ok {
			return sc, k, n
		}
		k += scatterReduce(sc, r, stream, stride, combine)
		n += len(stream) / stride
	}
}

// Reuse empties dst, lays it out as l and gives it n entries of undefined
// contents for the caller to overwrite, reusing dst's arrays when they hold
// n: the storage of a vector the caller has finished with backs the next
// one. A nil dst gets a new vector. It returns dst.
func Reuse(dst *SparseV, l Layout, n int) *SparseV {
	if dst == nil {
		dst = &SparseV{}
	}
	dst.L = l
	dst.Idx = slices.Grow(dst.Idx[:0], n)[:n]
	dst.Val = slices.Grow(dst.Val[:0], n)[:n]
	return dst
}

// checkDst panics when an operation would write into the vector it reads.
func checkDst[V SparseV | SparseInt](s, dst *V) {
	if dst == s {
		panic("dvec: a vector cannot be its own dst")
	}
}

// vertices fills dst, through Reuse, with the k touched entries of sc in
// index order and returns it.
func vertices(dst *SparseV, outL Layout, sc *rt.Scratch, k int) *SparseV {
	lo := outL.MyRange().Lo
	out := Reuse(dst, outL, k)
	i := 0
	for off := sc.Next(0); off < sc.Len(); off = sc.Next(off + 1) {
		out.Idx[i], out.Val[i] = lo+off, sc.Val[off]
		i++
	}
	return out
}

// reuseInts is Reuse for an (index, int64) vector.
func reuseInts(dst *SparseInt, l Layout, n int) *SparseInt {
	if dst == nil {
		dst = NewSparseInt(l)
	}
	dst.L = l
	dst.Idx = slices.Grow(dst.Idx[:0], n)[:n]
	dst.Val = slices.Grow(dst.Val[:0], n)[:n]
	return dst
}

// ints is vertices for (index, value) records: the value is the parent.
func ints(dst *SparseInt, outL Layout, sc *rt.Scratch, k int) *SparseInt {
	lo := outL.MyRange().Lo
	out := reuseInts(dst, outL, k)
	i := 0
	for off := sc.Next(0); off < sc.Len(); off = sc.Next(off + 1) {
		out.Idx[i], out.Val[i] = lo+off, sc.Val[off].Parent
		i++
	}
	return out
}

// ReceiveV builds the sparse vector with layout outL from the (index,
// parent, root) streams of rq, combining the records of one index with the
// semiring addition op, and completes rq. This is the SpMV fold's merge: op
// is associative and commutative, so arrival order cannot change the
// result. The indices must fall in outL.MyRange(). The result is written
// into dst, a vector the caller has finished with (nil allocates one).
func ReceiveV(outL Layout, rq *mpi.Request, op semiring.AddOp, dst *SparseV) *SparseV {
	sc, k, _ := receive(outL, rq.Next, 3, op.Combine)
	rq.Wait()
	return vertices(dst, outL, sc, k)
}

// ReceiveInt builds the sparse vector with layout outL from received
// (index, value) records, summing the values of one index: the
// residual-degree count. The indices must fall in outL.MyRange(); flat
// stays the caller's. The result is written into dst, a vector the caller
// has finished with (nil allocates one).
func ReceiveInt(outL Layout, flat []int64, dst *SparseInt) *SparseInt {
	r := outL.MyRange()
	sc := outL.G.RT.Scratch("dvec.receive", r.Len())
	return ints(dst, outL, sc, scatterReduce(sc, r, flat, 2, sum))
}

// sum adds the values of two records with one index.
func sum(held, in semiring.Vertex) semiring.Vertex {
	held.Parent += in.Parent
	return held
}

// invert routes stride-length records (target, source[, root]) to the
// owner of their target under outL with a personalized all-to-all over the
// whole grid, the communication pattern Table I specifies for INVERT, and
// receives them: the record with the smallest source wins each target ("we
// keep the first index"), which is MinParent over (source, root). The
// records buffer goes back to the arena once routed.
func invert(l Layout, outL Layout, records []int64, stride int) (*rt.Scratch, int) {
	c := l.G.World
	ctx := l.G.RT
	parts := ctx.GetParts(c.Size())
	ends, ranks := outL.owners(ctx.GetInts(2 * c.Size()))
	for off := 0; off < len(records); off += stride {
		tgt := records[off]
		if tgt < 0 || tgt >= int64(outL.N) {
			panic(fmt.Sprintf("dvec: INVERT target %d outside [0,%d)", tgt, outL.N))
		}
		rank := ranks[ownerSlot(ends, tgt)]
		parts[rank] = append(parts[rank], records[off:off+stride]...)
	}
	c.AddWork(len(records) / stride)
	ctx.PutInts(ends)
	ctx.PutInts(records)
	rq := c.IAlltoallvParts(parts)
	sc, k, n := receive(outL, rq.Next, stride, semiring.MinParent.Combine)
	rq.Wait()
	ctx.PutParts(parts)
	c.AddWork(n)
	return sc, k
}

// Invert computes the Table I INVERT primitive: a sparse vector z with
// layout outL where z[x[i]] = i for every nonzero of x. When several source
// entries carry the same value, the smallest source index wins ("we keep
// the first index"). The result is written into dst as for InvertParents;
// s itself as dst panics. Collective: personalized all-to-all.
func (s *SparseInt) Invert(outL Layout, dst *SparseInt) *SparseInt {
	checkDst(s, dst)
	records := s.L.G.RT.GetInts(2 * len(s.Idx))
	for k, g := range s.Idx {
		records = append(records, s.Val[k], int64(g))
	}
	sc, k := invert(s.L, outL, records, 2)
	return ints(dst, outL, sc, k)
}

// InvertParents inverts a VERTEX vector by its parents: the result has one
// entry per distinct parent p, at index p, carrying (source index, source
// root). This is the INVERT(f_r) step constructing the next column frontier.
// The result is written into dst, a vector the caller has finished with (nil
// allocates one); s itself as dst panics. Collective.
func (s *SparseV) InvertParents(outL Layout, dst *SparseV) *SparseV {
	checkDst(s, dst)
	records := s.L.G.RT.GetInts(3 * len(s.Idx))
	for k, g := range s.Idx {
		records = append(records, s.Val[k].Parent, int64(g), s.Val[k].Root)
	}
	sc, k := invert(s.L, outL, records, 3)
	return vertices(dst, outL, sc, k)
}

// InvertRoots inverts a VERTEX vector by its roots: the result has one entry
// per distinct root r, at index r, carrying (source index, root). This is
// the INVERT(ROOT(uf_r)) step recording one augmenting path per alternating
// tree. The result is written into dst as for InvertParents. Collective.
func (s *SparseV) InvertRoots(outL Layout, dst *SparseV) *SparseV {
	checkDst(s, dst)
	records := s.L.G.RT.GetInts(3 * len(s.Idx))
	for k, g := range s.Idx {
		records = append(records, s.Val[k].Root, int64(g), s.Val[k].Root)
	}
	sc, k := invert(s.L, outL, records, 3)
	return vertices(dst, outL, sc, k)
}

// PruneRoots removes the entries whose root appears in the globally
// combined root set — the Table I PRUNE primitive — compacting s in place.
// Each rank contributes its local share of the q vector (the roots of newly
// found augmenting paths); the sets are combined with an allgather, the
// communication pattern and ring cost the paper assigns to PRUNE.
// Collective.
func (s *SparseV) PruneRoots(localRoots []int64) {
	c := s.L.G.World
	ctx := s.L.G.RT
	banned := flatAllgather(c, ctx, localRoots, len(localRoots)*c.Size())
	// Sorted + deduped flat set instead of a per-call hash map: lookups are
	// binary searches and the buffer goes back to the arena afterwards.
	slices.Sort(banned)
	banned = slices.Compact(banned)
	n := 0
	for k, g := range s.Idx {
		if _, hit := slices.BinarySearch(banned, s.Val[k].Root); !hit {
			s.Idx[n], s.Val[n] = g, s.Val[k]
			n++
		}
	}
	c.AddWork(len(s.Idx) + len(banned))
	ctx.PutInts(banned)
	s.Idx, s.Val = s.Idx[:n], s.Val[:n]
}

// GatherVertices reconstructs the full VERTEX vector, with (None, None) at
// missing positions, on the ranks that pass keep and returns nil on the
// others. Collective: every rank contributes its entries to the same
// progressive allgather whatever keep is, and a rank that does not keep
// lets Wait drain the parts. For tests and result extraction.
func (s *SparseV) GatherVertices(keep bool) []semiring.Vertex {
	payload := make([]int64, 0, 3*len(s.Idx))
	for k, g := range s.Idx {
		payload = append(payload, int64(g), s.Val[k].Parent, s.Val[k].Root)
	}
	rq := s.L.G.World.IAllgathervParts(payload)
	var out []semiring.Vertex
	if keep {
		out = make([]semiring.Vertex, s.L.N)
		for i := range out {
			out[i] = semiring.Vertex{Parent: semiring.None, Root: semiring.None}
		}
		for {
			_, p, ok := rq.Next()
			if !ok {
				break
			}
			for off := 0; off < len(p); off += 3 {
				out[p[off]] = semiring.Vertex{Parent: p[off+1], Root: p[off+2]}
			}
		}
	}
	rq.Wait()
	return out
}

// Clone copies s into dst, a vector the caller has finished with (nil
// allocates one), and returns it.
func (s *SparseInt) Clone(dst *SparseInt) *SparseInt {
	out := reuseInts(dst, s.L, len(s.Idx))
	copy(out.Idx, s.Idx)
	copy(out.Val, s.Val)
	return out
}

// Filter writes the entries whose value satisfies pred into dst (nil
// allocates one) and returns it; dst may be s itself, which filters in
// place. Local.
func (s *SparseInt) Filter(pred func(int64) bool, dst *SparseInt) *SparseInt {
	n := len(s.Idx)
	out := reuseInts(dst, s.L, n)
	m := 0
	for k := 0; k < n; k++ {
		if v := s.Val[k]; pred(v) {
			out.Idx[m], out.Val[m] = s.Idx[k], v
			m++
		}
	}
	s.L.G.World.AddWork(n)
	out.Idx, out.Val = out.Idx[:m], out.Val[:m]
	return out
}
