// Package parallel provides the intra-rank worker pool that plays the role
// of the paper's OpenMP threading: local computation inside each simulated
// MPI rank is "fully multithreaded" while communication stays funneled
// through the rank itself (MPI_THREAD_FUNNELED).
//
// The center of the package is Pool: a persistent set of worker goroutines
// parked on a task channel, owned by the rank's runtime context (rt.Ctx) and
// reused for every parallel region of a solve — the analogue of an OpenMP
// thread team that lives for the process, not for one loop. Spawning
// goroutines per loop would cost a stack and a scheduler round-trip
// per chunk per call; a parked worker costs one channel send.
//
// On the simulation host the workers share physical cores with the other
// ranks' goroutines, so the wall-clock benefit is bounded by the hardware
// (GOMAXPROCS); the cost model additionally accounts for the modeled t-way
// speedup of the local-work term (costmodel.Machine.Time). The pool's Stats
// report what actually happened: regions run, busy time, and utilization.
package parallel

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMinChunk is the grain below which a range is not worth splitting:
// under ~256 elements per chunk, dispatch overhead dominates the work.
const DefaultMinChunk = 256

// task is one dispatched chunk of a parallel region.
type task struct {
	fn        func(w, lo, hi int)
	w, lo, hi int
	wg        *sync.WaitGroup
	panics    *panicBox
	busy      *cell
}

// panicBox captures the first panic raised inside any chunk of a region, a
// worker's or the dispatcher's own, so the dispatcher can re-raise it on its
// own goroutine after the region's last chunk is done (matching the
// behavior of the same loop run inline).
type panicBox struct {
	mu  sync.Mutex
	val any
	set bool
}

func (b *panicBox) store(v any) {
	b.mu.Lock()
	if !b.set {
		b.val, b.set = v, true
	}
	b.mu.Unlock()
}

// run calls fn(w, lo, hi), storing a panic it raises instead of letting it
// unwind the calling goroutine.
func (b *panicBox) run(fn func(w, lo, hi int), w, lo, hi int) {
	defer func() {
		if r := recover(); r != nil {
			b.store(r)
		}
	}()
	fn(w, lo, hi)
}

func (b *panicBox) get() (any, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.val, b.set
}

// cell is a cache-line padded atomic counter. Per-worker counters (busy
// nanoseconds, MapReduce partials) sit one per line so concurrent updates
// from different workers never contend on the same line (false sharing).
type cell struct {
	v atomic.Int64
	_ [56]byte
}

// Pool is a persistent team of worker goroutines for one rank. A Pool
// belongs to exactly one rank goroutine: only that goroutine may dispatch
// regions (ForChunked, For, MapReduce, Run) or Close it. The workers
// themselves are internal. A nil *Pool is valid and runs everything inline
// on the caller, which is the Threads=1 configuration.
type Pool struct {
	threads int
	tasks   chan task
	busy    []cell // per-worker busy ns; index 0 is the dispatching rank
	closed  bool

	// Region telemetry; written only by the dispatching rank goroutine.
	regions int64 // regions that actually fanned out
	inline  int64 // regions run inline (width 1 after the grain clamp)
	span    int64 // total wall ns the dispatcher spent inside fanned regions
}

// NewPool starts a pool of `threads` workers: threads-1 parked goroutines
// plus the dispatching rank itself, which always executes chunk 0 of every
// region. threads <= 1 returns nil (the inline pool).
func NewPool(threads int) *Pool {
	if threads <= 1 {
		return nil
	}
	p := &Pool{
		threads: threads,
		tasks:   make(chan task),
		busy:    make([]cell, threads),
	}
	for i := 1; i < threads; i++ {
		go p.worker()
	}
	return p
}

// worker parks on the task channel until Close.
func (p *Pool) worker() {
	for t := range p.tasks {
		start := time.Now()
		t.panics.run(t.fn, t.w, t.lo, t.hi)
		t.busy.v.Add(int64(time.Since(start)))
		t.wg.Done()
	}
}

// Close releases the parked workers. Safe on a nil pool and idempotent; the
// pool must not be used after Close.
func (p *Pool) Close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	close(p.tasks)
}

// Threads returns the team size (1 for a nil pool).
func (p *Pool) Threads() int {
	if p == nil {
		return 1
	}
	return p.threads
}

// Width returns the number of chunks a region over n elements with the
// given grain will fan out to: at most Threads(), at least 1, and never so
// many that a chunk falls under minChunk. Callers sizing per-worker scratch
// (e.g. SpMV shards) call Width first and ForChunked with the same
// arguments after; the two always agree.
func (p *Pool) Width(n, minChunk int) int {
	if minChunk < 1 {
		minChunk = 1
	}
	t := p.Threads()
	if t > n/minChunk {
		t = n / minChunk
	}
	if t < 1 {
		t = 1
	}
	return t
}

// chunkBounds splits [0, n) into t near-equal contiguous chunks and returns
// the t+1 boundary offsets.
func chunkBounds(n, t int) []int {
	bounds := make([]int, t+1)
	base, rem := n/t, n%t
	off := 0
	for w := 0; w < t; w++ {
		bounds[w] = off
		off += base
		if w < rem {
			off++
		}
	}
	bounds[t] = n
	return bounds
}

// Chunks returns the boundary offsets ForChunked would use for a region of
// n elements at the given grain: Width+1 offsets with chunk w spanning
// [Chunks[w], Chunks[w+1]). Exported so multi-pass kernels (sort merges,
// shard merges) can line up later passes with an earlier split.
func (p *Pool) Chunks(n, minChunk int) []int {
	return chunkBounds(n, p.Width(n, minChunk))
}

// ForChunked splits [0, n) into Width(n, minChunk) contiguous chunks and
// runs fn(w, lo, hi) on each, where w is the chunk (worker) index — the key
// for striped scratch. Chunk 0 runs on the calling goroutine; the rest on
// parked workers. Returns after every chunk completes, also when one
// panics: the first panic of any chunk, the caller's own included, is
// re-raised on the caller once every chunk has finished, so no worker still
// writes into the region's data after the region unwinds. Width 1 runs
// fn(0, 0, n) inline with no synchronization at all.
func (p *Pool) ForChunked(n, minChunk int, fn func(w, lo, hi int)) {
	t := p.Width(n, minChunk)
	if t <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		if p != nil {
			p.inline++
		}
		return
	}
	start := time.Now()
	bounds := chunkBounds(n, t)
	var wg sync.WaitGroup
	box := &panicBox{}
	wg.Add(t - 1)
	for w := 1; w < t; w++ {
		p.tasks <- task{fn: fn, w: w, lo: bounds[w], hi: bounds[w+1], wg: &wg, panics: box, busy: &p.busy[w]}
	}
	callerStart := time.Now()
	box.run(fn, 0, bounds[0], bounds[1])
	p.busy[0].v.Add(int64(time.Since(callerStart)))
	wg.Wait()
	p.regions++
	p.span += int64(time.Since(start))
	if v, ok := box.get(); ok {
		panic(v)
	}
}

// For runs fn(lo, hi) over near-equal chunks of [0, n) at the default
// grain. The chunked form of the paper's `#pragma omp parallel for`.
func (p *Pool) For(n int, fn func(lo, hi int)) {
	p.ForChunked(n, DefaultMinChunk, func(_, lo, hi int) { fn(lo, hi) })
}

// MapReduce runs fn over chunks of [0, n), each chunk producing a partial
// int64, and combines the partials in chunk order with combine (associative;
// commutativity is then not needed for determinism). The zero partial is the
// identity for an empty range. Partials live in padded per-worker cells.
func (p *Pool) MapReduce(n int, fn func(lo, hi int) int64, combine func(a, b int64) int64) int64 {
	t := p.Width(n, DefaultMinChunk)
	if t <= 1 {
		if n <= 0 {
			return 0
		}
		if p != nil {
			p.inline++
		}
		return fn(0, n)
	}
	partials := make([]cell, t)
	p.ForChunked(n, DefaultMinChunk, func(w, lo, hi int) {
		partials[w].v.Store(fn(lo, hi))
	})
	acc := partials[0].v.Load()
	for w := 1; w < t; w++ {
		acc = combine(acc, partials[w].v.Load())
	}
	return acc
}

// Stats is a snapshot of a pool's lifetime telemetry.
type Stats struct {
	Threads int           // team size
	Regions int64         // regions that fanned out to workers
	Inline  int64         // regions that ran inline (below the grain)
	Busy    time.Duration // summed busy time across all team members
	Span    time.Duration // summed dispatcher wall time of fanned regions
}

// Utilization is the fraction of the team's theoretical capacity that was
// busy during fanned regions: Busy / (Span * Threads). 1.0 means every
// worker computed for the whole span of every region; low values mean
// chunks were imbalanced or the grain too fine.
func (s Stats) Utilization() float64 {
	if s.Span <= 0 || s.Threads <= 0 {
		return 0
	}
	return float64(s.Busy) / (float64(s.Span) * float64(s.Threads))
}

// Sub returns the element-wise difference s - o (Threads kept from s), for
// per-solve deltas of a long-lived pool's cumulative stats.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Threads: s.Threads,
		Regions: s.Regions - o.Regions,
		Inline:  s.Inline - o.Inline,
		Busy:    s.Busy - o.Busy,
		Span:    s.Span - o.Span,
	}
}

// Max returns the element-wise maximum (critical-path merge across ranks).
func (s Stats) Max(o Stats) Stats {
	out := s
	if o.Threads > out.Threads {
		out.Threads = o.Threads
	}
	if o.Regions > out.Regions {
		out.Regions = o.Regions
	}
	if o.Inline > out.Inline {
		out.Inline = o.Inline
	}
	if o.Busy > out.Busy {
		out.Busy = o.Busy
	}
	if o.Span > out.Span {
		out.Span = o.Span
	}
	return out
}

// Stats returns the pool's cumulative telemetry (zero for a nil pool).
func (p *Pool) Stats() Stats {
	if p == nil {
		return Stats{Threads: 1}
	}
	var busy int64
	for i := range p.busy {
		busy += p.busy[i].v.Load()
	}
	return Stats{
		Threads: p.threads,
		Regions: p.regions,
		Inline:  p.inline,
		Busy:    time.Duration(busy),
		Span:    time.Duration(p.span),
	}
}
