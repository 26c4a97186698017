package dvec

import (
	"fmt"

	"mcmdist/internal/obs"
	"mcmdist/internal/parallel"
)

// Dense is one rank's piece of a distributed dense vector of int64 (the
// paper's mate, parent and path vectors, with semiring.None marking missing
// entries).
type Dense struct {
	L     Layout
	Local []int64 // values for MyRange(), index-shifted by MyRange().Lo
}

// HoldDense builds a distributed dense vector with every element fill, in
// storage the rank's runtime context holds for the solve (rt.Ctx.HoldDense):
// a warm context lends a buffer an earlier solve held, and the context's
// next Bind sets Local to nil. A vector of a context no Bind reaches again
// is ordinary garbage-collected storage.
func HoldDense(l Layout, fill int64) *Dense {
	d := &Dense{L: l}
	l.G.RT.HoldDense(&d.Local, l.MyRange().Len())
	d.Fill(fill)
	return d
}

// NewDenseFrom builds a distributed dense vector from a replicated global
// slice (each rank keeps only its block). Intended for tests and input
// loading.
func NewDenseFrom(l Layout, global []int64) *Dense {
	if len(global) != l.N {
		panic(fmt.Sprintf("dvec: global slice length %d != %d", len(global), l.N))
	}
	r := l.MyRange()
	local := make([]int64, r.Len())
	copy(local, global[r.Lo:r.Hi])
	return &Dense{L: l, Local: local}
}

// SetAt stores v at global index g, which must be owned by this rank.
func (d *Dense) SetAt(g int, v int64) {
	r := d.L.MyRange()
	if !r.Contains(g) {
		panic(fmt.Sprintf("dvec: index %d outside local range [%d,%d)", g, r.Lo, r.Hi))
	}
	d.Local[g-r.Lo] = v
}

// Fill overwrites every local element with v.
func (d *Dense) Fill(v int64) {
	for i := range d.Local {
		d.Local[i] = v
	}
}

// Gather reconstructs the full vector on the ranks that pass keep and
// returns nil on the others. Collective; every rank posts its block to the
// same allgather whatever keep is, so metering does not depend on it.
// Intended for verification, result extraction and small outputs, not
// inner loops. The send payload is an rt arena buffer; a keeping rank
// places each peer's block straight out of its send buffer as it arrives
// (progressive split-phase allgather, zero staging copies) and allocates
// only the returned global slice, and the others let Wait drain the
// parts without allocating one.
func (d *Dense) Gather(keep bool) []int64 {
	c := d.L.G.World
	ctx := d.L.G.RT
	tr := ctx.Tracer()
	t0 := tr.Begin()
	r := d.L.MyRange()
	// Ship (offset, values...) so receivers can place blocks.
	payload := ctx.GetInts(len(d.Local) + 1)
	payload = append(payload, int64(r.Lo))
	payload = append(payload, d.Local...)
	rq := c.IAllgathervParts(payload)
	var out []int64
	if keep {
		out = make([]int64, d.L.N)
		for {
			_, p, ok := rq.Next()
			if !ok {
				break
			}
			lo := int(p[0])
			copy(out[lo:lo+len(p)-1], p[1:])
		}
	}
	rq.Wait()
	ctx.PutInts(payload)
	tr.End(obs.KindOp, "dvec.gather", t0, int64(d.L.N))
	return out
}

// SparseWhere builds a sparse vector from the dense entries satisfying
// pred, keeping their values. Local (the paper's "sparse vector from path_c
// by removing entries with -1"). The scan runs as the two-pass compaction
// on the rank's worker pool, so the result is sized before it is filled.
// The result is written into dst, a vector the caller has finished with
// (nil allocates one).
func (d *Dense) SparseWhere(pred func(int64) bool, dst *SparseInt) *SparseInt {
	lo := d.L.MyRange().Lo
	pool := d.L.G.RT.Pool()
	n := len(d.Local)
	bounds := pool.Chunks(n, parallel.DefaultMinChunk)
	w := len(bounds) - 1
	offsets := make([]int, w+1)
	pool.ForChunked(n, parallel.DefaultMinChunk, func(wi, clo, chi int) {
		cnt := 0
		for i := clo; i < chi; i++ {
			if pred(d.Local[i]) {
				cnt++
			}
		}
		offsets[wi+1] = cnt
	})
	for i := 1; i <= w; i++ {
		offsets[i] += offsets[i-1]
	}
	total := offsets[w]
	out := reuseInts(dst, d.L, total)
	if total > 0 {
		pool.ForChunked(n, parallel.DefaultMinChunk, func(wi, clo, chi int) {
			o := offsets[wi]
			for i := clo; i < chi; i++ {
				if v := d.Local[i]; pred(v) {
					out.Idx[o] = lo + i
					out.Val[o] = v
					o++
				}
			}
		})
	}
	d.L.G.World.AddWork(len(d.Local))
	return out
}
