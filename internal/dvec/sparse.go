package dvec

import (
	"fmt"
	"slices"

	"mcmdist/internal/mpi"
	"mcmdist/internal/rt"
	"mcmdist/internal/semiring"
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

// invertExchange buckets flattened records by the owner of their target
// index under outL and exchanges them with a personalized all-to-all over
// the whole grid, the communication pattern Table I specifies for INVERT.
// Each record is stride int64s, the first being the target global index.
// The result is one flat arena buffer of received records, which the caller
// must return with PutInts when done.
func invertExchange(l Layout, outL Layout, records []int64, stride int) []int64 {
	c := l.G.World
	ctx := l.G.RT
	p := c.Size()
	parts := ctx.GetParts(p)
	for off := 0; off < len(records); off += stride {
		tgt := int(records[off])
		if tgt < 0 || tgt >= outL.N {
			panic(fmt.Sprintf("dvec: INVERT target %d outside [0,%d)", tgt, outL.N))
		}
		rank := outL.G.RankAt(outL.OwnerCoords(tgt))
		parts[rank] = append(parts[rank], records[off:off+stride]...)
	}
	c.AddWork(len(records) / max(stride, 1))
	flat := flatAlltoall(c, ctx, parts, len(records))
	ctx.PutParts(parts)
	return flat
}

// Reduce is how a scatter-reduce receive combines records that carry the
// same target index. Every mode is independent of arrival order.
type Reduce int

const (
	// KeepMin keeps the record with the smallest value: INVERT's "first
	// index" rule, the value being the source index (unique per record).
	KeepMin Reduce = iota
	// Sum adds the values: the counting fold.
	Sum
	// Store overwrites: redistribute, whose indices arrive once each.
	Store
)

// scatterReduce folds received stride-length records (index, value[, root])
// into the rank's dense scratch over outL.MyRange(), combining the records
// of one index under op, and returns the scratch and the number k of
// distinct local offsets it touched. The scratch's Next walks those offsets
// in increasing order, so the receive is O(records + n/64) with no sort.
func scatterReduce(outL Layout, flat []int64, stride int, op Reduce) (*rt.Scratch, int) {
	r := outL.MyRange()
	n := r.Len()
	sc := outL.G.RT.Scratch("dvec.receive", n)
	k := 0
	for o := 0; o < len(flat); o += stride {
		off := int(flat[o]) - r.Lo
		if uint(off) >= uint(n) {
			panic(fmt.Sprintf("dvec: received index %d outside local range [%d,%d)", flat[o], r.Lo, r.Hi))
		}
		v := semiring.Vertex{Parent: flat[o+1]}
		if stride == 3 {
			v.Root = flat[o+2]
		}
		switch {
		case !sc.Has(off):
			sc.Set(off, v)
			k++
		case op == Sum:
			sc.Val[off].Parent += v.Parent
		case op == Store || v.Parent < sc.Val[off].Parent:
			sc.Val[off] = v
		}
	}
	return sc, k
}

// ReceiveInt builds the sparse vector with layout outL from received
// (index, value) records, combining the records of one index under op. The
// indices must fall in outL.MyRange(); flat stays the caller's.
func ReceiveInt(outL Layout, flat []int64, op Reduce) *SparseInt {
	sc, k := scatterReduce(outL, flat, 2, op)
	lo := outL.MyRange().Lo
	out := NewSparseInt(outL)
	if k > 0 {
		out.Idx = make([]int, 0, k)
		out.Val = make([]int64, 0, k)
	}
	for off := sc.Next(0); off < sc.Len(); off = sc.Next(off + 1) {
		out.Idx = append(out.Idx, lo+off)
		out.Val = append(out.Val, sc.Val[off].Parent)
	}
	return out
}

// Invert computes the Table I INVERT primitive: a sparse vector z with
// layout outL where z[x[i]] = i for every nonzero of x. When several source
// entries carry the same value, the smallest source index wins ("we keep
// the first index"). Collective: personalized all-to-all.
func (s *SparseInt) Invert(outL Layout) *SparseInt {
	ctx := s.L.G.RT
	records := ctx.GetInts(2 * len(s.Idx))
	for k, g := range s.Idx {
		records = append(records, s.Val[k], int64(g))
	}
	flat := invertExchange(s.L, outL, records, 2)
	ctx.PutInts(records)
	out := ReceiveInt(outL, flat, KeepMin)
	s.L.G.World.AddWork(len(flat) / 2)
	ctx.PutInts(flat)
	return out
}

// InvertParents inverts a VERTEX vector by its parents: the result has one
// entry per distinct parent p, at index p, carrying (source index, source
// root). This is the INVERT(f_r) step constructing the next column frontier.
// Collective.
func (s *SparseV) InvertParents(outL Layout) *SparseV {
	ctx := s.L.G.RT
	records := ctx.GetInts(3 * len(s.Idx))
	for k, g := range s.Idx {
		records = append(records, s.Val[k].Parent, int64(g), s.Val[k].Root)
	}
	out := invertVertex(s.L, outL, records)
	ctx.PutInts(records)
	return out
}

// InvertRoots inverts a VERTEX vector by its roots: the result has one entry
// per distinct root r, at index r, carrying (source index, root). This is
// the INVERT(ROOT(uf_r)) step recording one augmenting path per alternating
// tree. Collective.
func (s *SparseV) InvertRoots(outL Layout) *SparseV {
	ctx := s.L.G.RT
	records := ctx.GetInts(3 * len(s.Idx))
	for k, g := range s.Idx {
		records = append(records, s.Val[k].Root, int64(g), s.Val[k].Root)
	}
	out := invertVertex(s.L, outL, records)
	ctx.PutInts(records)
	return out
}

// invertVertex is INVERT over (target, source, root) records: the record
// with the smallest source wins each target and keeps its root.
func invertVertex(l Layout, outL Layout, records []int64) *SparseV {
	flat := invertExchange(l, outL, records, 3)
	sc, k := scatterReduce(outL, flat, 3, KeepMin)
	lo := outL.MyRange().Lo
	out := NewSparseV(outL)
	if k > 0 {
		out.Idx = make([]int, 0, k)
		out.Val = make([]semiring.Vertex, 0, k)
	}
	for off := sc.Next(0); off < sc.Len(); off = sc.Next(off + 1) {
		out.Idx = append(out.Idx, lo+off)
		out.Val = append(out.Val, sc.Val[off])
	}
	l.G.World.AddWork(len(flat) / 3)
	l.G.RT.PutInts(flat)
	return out
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
