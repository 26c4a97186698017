package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. All methods are
// atomic; ranks on different goroutines may Add concurrently.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable integer metric.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution metric with Prometheus
// cumulative-bucket exposition. Observe is lock-free.
type Histogram struct {
	name, help string
	uppers     []float64 // ascending; an implicit +Inf bucket follows
	counts     []atomic.Int64
	sumBits    atomic.Uint64
}

// DefBuckets covers 1µs to ~100s, a decade-and-a-half ladder suiting both
// single collectives and whole solves.
var DefBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 100,
}

// Observe records one sample (in the histogram's unit, typically seconds).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Registry is a get-or-create collection of metrics with a Prometheus
// text-exposition writer. Metric creation takes a lock; the returned
// handles are lock-free thereafter.
type Registry struct {
	mu    sync.Mutex
	byNm  map[string]any
	order []any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byNm: make(map[string]any)}
}

// register returns the metric registered under name, creating it with mk
// on first use; ok is false when the name holds a metric of another type.
func register[T any](r *Registry, name string, mk func() T) (m T, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, found := r.byNm[name]; found {
		m, ok = old.(T)
		return m, ok
	}
	m = mk()
	r.byNm[name] = m
	r.order = append(r.order, m)
	return m, true
}

// mustRegister is register for a caller that names its own metrics:
// re-registering a name as a different metric type panics.
func mustRegister[T any](r *Registry, name string, mk func() T) T {
	m, ok := register(r, name, mk)
	if !ok {
		panic("obs: metric " + name + " already registered with a different type")
	}
	return m
}

// Counter returns the counter registered under name, creating it on first
// use. Re-registering a name as a different metric type panics.
func (r *Registry) Counter(name, help string) *Counter {
	return mustRegister(r, name, func() *Counter { return &Counter{name: name, help: help} })
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return mustRegister(r, name, func() *Gauge { return &Gauge{name: name, help: help} })
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds (DefBuckets if nil) on first use.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return mustRegister(r, name, func() *Histogram { return newHistogram(name, help, buckets) })
}

func newHistogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	uppers := make([]float64, len(buckets))
	copy(uppers, buckets)
	sort.Float64s(uppers)
	return &Histogram{name: name, help: help, uppers: uppers,
		counts: make([]atomic.Int64, len(uppers)+1)}
}

// WritePrometheus renders every metric in registration order in the
// Prometheus text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := make([]any, len(r.order))
	copy(metrics, r.order)
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, m := range metrics {
		switch m := m.(type) {
		case *Counter:
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", m.name, m.help, m.name, m.name, m.Value())
		case *Gauge:
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", m.name, m.help, m.name, m.name, m.Value())
		case *Histogram:
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s histogram\n", m.name, m.help, m.name)
			var cum int64
			for i, ub := range m.uppers {
				cum += m.counts[i].Load()
				fmt.Fprintf(bw, "%s_bucket{le=\"%g\"} %d\n", m.name, ub, cum)
			}
			cum += m.counts[len(m.uppers)].Load()
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", m.name, cum)
			fmt.Fprintf(bw, "%s_sum %g\n%s_count %d\n", m.name, m.Sum(), m.name, cum)
		}
	}
	return bw.Flush()
}

// Handler returns an http.Handler serving the registry in Prometheus text
// format — the cmd/mcm -metrics-addr endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
