package dvec

import (
	"fmt"
	"slices"

	"mcmdist/internal/mpi"
	"mcmdist/internal/rt"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

// flatAlltoall routes parts through a split-phase personalized all-to-all
// into one flat arena buffer: arrived payloads are copied out while
// stragglers are still sending, hiding the copy-out behind the wait.
// Consumers scatter-reduce the union under an order-free combine, so arrival
// order is harmless.
func flatAlltoall(c *mpi.Comm, ctx *rt.Ctx, parts [][]int64, hint int) []int64 {
	rq := c.IAlltoallvParts(parts)
	flat := rq.Drain(ctx.GetInts(hint))
	rq.Finish()
	return flat
}

// flatAllgather is flatAlltoall's allgather counterpart (PRUNE's pattern).
func flatAllgather(c *mpi.Comm, ctx *rt.Ctx, data []int64, hint int) []int64 {
	rq := c.IAllgathervParts(data)
	flat := rq.Drain(ctx.GetInts(hint))
	rq.Finish()
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
func (s *SparseInt) Append(g int, v int64) {
	checkAppend(s.L, s.Idx, g)
	s.Idx = append(s.Idx, g)
	s.Val = append(s.Val, v)
}

// Append adds a nonzero at global index g; indices must arrive in strictly
// increasing order.
func (s *SparseV) Append(g int, v semiring.Vertex) {
	checkAppend(s.L, s.Idx, g)
	s.Idx = append(s.Idx, g)
	s.Val = append(s.Val, v)
}

// LocalNnz returns the number of locally stored nonzeros.
func (s *SparseInt) LocalNnz() int { return len(s.Idx) }

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

// Ind returns the local nonzero indices (the Table I IND primitive). The
// slice aliases the vector.
func (s *SparseInt) Ind() []int { return s.Idx }

// Ind returns the local nonzero indices (the Table I IND primitive).
func (s *SparseV) Ind() []int { return s.Idx }

// Select keeps the entries whose aligned dense value satisfies pred — the
// Table I SELECT primitive, communication-free because x and y share a
// layout. The result is a fresh vector.
func (s *SparseV) Select(y *Dense, pred func(int64) bool) *SparseV {
	if !s.L.Same(y.L) {
		panic("dvec: SELECT layout mismatch")
	}
	lo := s.L.MyRange().Lo
	out := NewSparseV(s.L)
	if n := len(s.Idx); n > 0 {
		out.Idx = make([]int, 0, n)
		out.Val = make([]semiring.Vertex, 0, n)
	}
	for k, g := range s.Idx {
		if pred(y.Local[g-lo]) {
			out.Idx = append(out.Idx, g)
			out.Val = append(out.Val, s.Val[k])
		}
	}
	s.L.G.World.AddWork(len(s.Idx))
	return out
}

// Select keeps the entries whose aligned dense value satisfies pred.
func (s *SparseInt) Select(y *Dense, pred func(int64) bool) *SparseInt {
	if !s.L.Same(y.L) {
		panic("dvec: SELECT layout mismatch")
	}
	lo := s.L.MyRange().Lo
	out := NewSparseInt(s.L)
	if n := len(s.Idx); n > 0 {
		out.Idx = make([]int, 0, n)
		out.Val = make([]int64, 0, n)
	}
	for k, g := range s.Idx {
		if pred(y.Local[g-lo]) {
			out.Idx = append(out.Idx, g)
			out.Val = append(out.Val, s.Val[k])
		}
	}
	s.L.G.World.AddWork(len(s.Idx))
	return out
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

// Roots returns a sparse int vector with the same indices and the entries'
// roots as values — the paper's ROOT(x).
func (s *SparseV) Roots() *SparseInt {
	out := &SparseInt{
		L:   s.L,
		Idx: append([]int(nil), s.Idx...),
		Val: make([]int64, len(s.Val)),
	}
	for k, v := range s.Val {
		out.Val[k] = v.Root
	}
	return out
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

// Parents returns a sparse int vector of the entries' parents — PARENT(x).
func (s *SparseV) Parents() *SparseInt {
	out := &SparseInt{
		L:   s.L,
		Idx: append([]int(nil), s.Idx...),
		Val: make([]int64, len(s.Val)),
	}
	for k, v := range s.Val {
		out.Val[k] = v.Parent
	}
	return out
}

// Reduce is how ReceiveInt combines records that carry the same target
// index. Both modes are independent of arrival order.
type Reduce int

const (
	// Sum adds the values: the residual-degree count.
	Sum Reduce = iota
	// Store overwrites: redistribute, whose indices arrive once each.
	Store
)

func (op Reduce) combine(held, in semiring.Vertex) semiring.Vertex {
	if op == Sum {
		held.Parent += in.Parent
		return held
	}
	return in
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

// vertices allocates the k touched entries of sc once and fills them in
// index order.
func vertices(outL Layout, sc *rt.Scratch, k int) *SparseV {
	lo := outL.MyRange().Lo
	out := &SparseV{L: outL, Idx: make([]int, 0, k), Val: make([]semiring.Vertex, 0, k)}
	for off := sc.Next(0); off < sc.Len(); off = sc.Next(off + 1) {
		out.Idx = append(out.Idx, lo+off)
		out.Val = append(out.Val, sc.Val[off])
	}
	return out
}

// ints is vertices for (index, value) records: the value is the parent.
func ints(outL Layout, sc *rt.Scratch, k int) *SparseInt {
	lo := outL.MyRange().Lo
	out := &SparseInt{L: outL, Idx: make([]int, 0, k), Val: make([]int64, 0, k)}
	for off := sc.Next(0); off < sc.Len(); off = sc.Next(off + 1) {
		out.Idx = append(out.Idx, lo+off)
		out.Val = append(out.Val, sc.Val[off].Parent)
	}
	return out
}

// ReceiveV builds the sparse vector with layout outL from the (index,
// parent, root) streams of rq, combining the records of one index with the
// semiring addition op, and finishes rq. This is the SpMV fold's merge: op
// is associative and commutative, so arrival order cannot change the
// result. The indices must fall in outL.MyRange().
func ReceiveV(outL Layout, rq *mpi.PartsRequest, op semiring.AddOp) *SparseV {
	sc, k, _ := receive(outL, rq.Next, 3, op.Combine)
	rq.Finish()
	return vertices(outL, sc, k)
}

// ReceiveInt builds the sparse vector with layout outL from received
// (index, value) records, combining the records of one index under op. The
// indices must fall in outL.MyRange(); flat stays the caller's.
func ReceiveInt(outL Layout, flat []int64, op Reduce) *SparseInt {
	r := outL.MyRange()
	sc := outL.G.RT.Scratch("dvec.receive", r.Len())
	return ints(outL, sc, scatterReduce(sc, r, flat, 2, op.combine))
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
	for off := 0; off < len(records); off += stride {
		tgt := int(records[off])
		if tgt < 0 || tgt >= outL.N {
			panic(fmt.Sprintf("dvec: INVERT target %d outside [0,%d)", tgt, outL.N))
		}
		rank := outL.G.RankAt(outL.OwnerCoords(tgt))
		parts[rank] = append(parts[rank], records[off:off+stride]...)
	}
	c.AddWork(len(records) / stride)
	ctx.PutInts(records)
	rq := c.IAlltoallvParts(parts)
	sc, k, n := receive(outL, rq.Next, stride, semiring.MinParent.Combine)
	rq.Finish()
	ctx.PutParts(parts)
	c.AddWork(n)
	return sc, k
}

// Invert computes the Table I INVERT primitive: a sparse vector z with
// layout outL where z[x[i]] = i for every nonzero of x. When several source
// entries carry the same value, the smallest source index wins ("we keep
// the first index"). Collective: personalized all-to-all.
func (s *SparseInt) Invert(outL Layout) *SparseInt {
	records := s.L.G.RT.GetInts(2 * len(s.Idx))
	for k, g := range s.Idx {
		records = append(records, s.Val[k], int64(g))
	}
	sc, k := invert(s.L, outL, records, 2)
	return ints(outL, sc, k)
}

// InvertParents inverts a VERTEX vector by its parents: the result has one
// entry per distinct parent p, at index p, carrying (source index, source
// root). This is the INVERT(f_r) step constructing the next column frontier.
// Collective.
func (s *SparseV) InvertParents(outL Layout) *SparseV {
	records := s.L.G.RT.GetInts(3 * len(s.Idx))
	for k, g := range s.Idx {
		records = append(records, s.Val[k].Parent, int64(g), s.Val[k].Root)
	}
	sc, k := invert(s.L, outL, records, 3)
	return vertices(outL, sc, k)
}

// InvertRoots inverts a VERTEX vector by its roots: the result has one entry
// per distinct root r, at index r, carrying (source index, root). This is
// the INVERT(ROOT(uf_r)) step recording one augmenting path per alternating
// tree. Collective.
func (s *SparseV) InvertRoots(outL Layout) *SparseV {
	records := s.L.G.RT.GetInts(3 * len(s.Idx))
	for k, g := range s.Idx {
		records = append(records, s.Val[k].Root, int64(g), s.Val[k].Root)
	}
	sc, k := invert(s.L, outL, records, 3)
	return vertices(outL, sc, k)
}

// PruneRoots removes the entries whose root appears in the globally
// combined root set — the Table I PRUNE primitive. Each rank contributes
// its local share of the q vector (the roots of newly found augmenting
// paths); the sets are combined with an allgather, the communication
// pattern and ring cost the paper assigns to PRUNE. Collective.
func (s *SparseV) PruneRoots(localRoots []int64) *SparseV {
	c := s.L.G.World
	ctx := s.L.G.RT
	banned := flatAllgather(c, ctx, localRoots, len(localRoots)*c.Size())
	// Sorted + deduped flat set instead of a per-call hash map: lookups are
	// binary searches and the buffer goes back to the arena afterwards.
	slices.Sort(banned)
	banned = slices.Compact(banned)
	out := NewSparseV(s.L)
	for k, g := range s.Idx {
		if _, hit := slices.BinarySearch(banned, s.Val[k].Root); !hit {
			out.Idx = append(out.Idx, g)
			out.Val = append(out.Val, s.Val[k])
		}
	}
	c.AddWork(len(s.Idx) + len(banned))
	ctx.PutInts(banned)
	return out
}

// GatherInt reconstructs the full sparse vector as a dense []int64 slice on
// every rank, with semiring.None at missing positions. For tests and result
// extraction.
func (s *SparseInt) GatherInt() []int64 {
	c := s.L.G.World
	payload := make([]int64, 0, 2*len(s.Idx))
	for k, g := range s.Idx {
		payload = append(payload, int64(g), s.Val[k])
	}
	parts := c.Allgatherv(payload)
	out := make([]int64, s.L.N)
	for i := range out {
		out[i] = semiring.None
	}
	for _, p := range parts {
		for off := 0; off < len(p); off += 2 {
			out[p[off]] = p[off+1]
		}
	}
	return out
}

// GatherVertices reconstructs the full VERTEX vector on every rank, with
// (None, None) at missing positions. For tests and result extraction.
func (s *SparseV) GatherVertices() []semiring.Vertex {
	c := s.L.G.World
	payload := make([]int64, 0, 3*len(s.Idx))
	for k, g := range s.Idx {
		payload = append(payload, int64(g), s.Val[k].Parent, s.Val[k].Root)
	}
	parts := c.Allgatherv(payload)
	out := make([]semiring.Vertex, s.L.N)
	for i := range out {
		out[i] = semiring.Vertex{Parent: semiring.None, Root: semiring.None}
	}
	for _, p := range parts {
		for off := 0; off < len(p); off += 3 {
			out[p[off]] = semiring.Vertex{Parent: p[off+1], Root: p[off+2]}
		}
	}
	return out
}

// Clone returns a deep copy.
func (s *SparseInt) Clone() *SparseInt {
	return &SparseInt{
		L:   s.L,
		Idx: append([]int(nil), s.Idx...),
		Val: append([]int64(nil), s.Val...),
	}
}

// Clone returns a deep copy.
func (s *SparseV) Clone() *SparseV {
	return &SparseV{
		L:   s.L,
		Idx: append([]int(nil), s.Idx...),
		Val: append([]semiring.Vertex(nil), s.Val...),
	}
}

// Filter keeps the entries whose value satisfies pred. Local.
func (s *SparseInt) Filter(pred func(int64) bool) *SparseInt {
	out := NewSparseInt(s.L)
	for k, g := range s.Idx {
		if pred(s.Val[k]) {
			out.Idx = append(out.Idx, g)
			out.Val = append(out.Val, s.Val[k])
		}
	}
	s.L.G.World.AddWork(len(s.Idx))
	return out
}

// Redistribute moves the vector to another layout of the same length (e.g.
// RowAligned to ColAligned), preserving indices and values. Collective:
// personalized all-to-all, the same pattern CombBLAS uses when a vector
// changes alignment between operations.
func (s *SparseInt) Redistribute(outL Layout) *SparseInt {
	if outL.N != s.L.N {
		panic(fmt.Sprintf("dvec: redistribute to different length %d != %d", outL.N, s.L.N))
	}
	c := s.L.G.World
	ctx := s.L.G.RT
	parts := ctx.GetParts(c.Size())
	for k, g := range s.Idx {
		rank := outL.G.RankAt(outL.OwnerCoords(g))
		parts[rank] = append(parts[rank], int64(g), s.Val[k])
	}
	flat := flatAlltoall(c, ctx, parts, 2*len(s.Idx))
	ctx.PutParts(parts)
	out := ReceiveInt(outL, flat, Store)
	c.AddWork(len(s.Idx) + len(flat)/2)
	ctx.PutInts(flat)
	return out
}

// ScatterRoots stores each entry's root into the aligned dense vector —
// used by the tree-grafting MCM variant to persist tree ownership. Local.
func (d *Dense) ScatterRoots(x *SparseV) {
	if !d.L.Same(x.L) {
		panic("dvec: SET layout mismatch")
	}
	lo := d.L.MyRange().Lo
	for k, g := range x.Idx {
		d.Local[g-lo] = x.Val[k].Root
	}
	d.L.G.World.AddWork(len(x.Idx))
}
