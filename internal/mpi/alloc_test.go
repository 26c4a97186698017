package mpi

// Allocation budget of the hot collectives. The mailbox moves []int64 rows
// as they are, so a warm call allocates only its request, its result handle
// and completion callback, its received row (a progressive request: its
// delivered flags instead) and, where it posts one payload to every member,
// the send row.

import (
	"runtime"
	"testing"
)

// TestWarmCollectiveAllocations counts the mallocs of each collective per
// call per rank on a 4-rank in-process world, with the caller's send parts
// and receive buffer warm (allocated once, reused by every call). The
// bounds are what the typed mailbox allocates.
func TestWarmCollectiveAllocations(t *testing.T) {
	const p, calls = 4, 200
	cases := []struct {
		name string
		max  float64
		body func(c *Comm) func()
	}{
		// send row, the shared one-word payload, callback, handle, request,
		// received row
		{"Allreduce", 6, func(c *Comm) func() {
			return func() { c.Allreduce(OpSum, 1) }
		}},
		// send row, the shared payload copy, callback, request, received
		// row, result: the scalar form's budget
		{"AllreduceN", 6, func(c *Comm) func() {
			vals := []int64{1, 2}
			return func() { c.AllreduceN(OpSum, vals) }
		}},
		// send row, callback, handle, request, received row
		{"AllgathervInto", 5, func(c *Comm) func() {
			data := []int64{int64(c.Rank()), 7}
			buf := make([]int64, 0, 2*p)
			return func() { buf = c.AllgathervInto(data, buf[:0]) }
		}},
		// callback, handle, request, received row
		{"AlltoallvFlat", 4, func(c *Comm) func() {
			parts := warmParts(c)
			buf := make([]int64, 0, 2*p)
			return func() { buf = c.AlltoallvFlat(parts, buf[:0]) }
		}},
		// send row, request, delivered flags: the SpMV expand
		{"IAllgathervParts", 3, func(c *Comm) func() {
			data := []int64{int64(c.Rank()), 7}
			return func() {
				q := c.IAllgathervParts(data)
				for {
					if _, _, ok := q.Next(); !ok {
						break
					}
				}
				q.Wait()
			}
		}},
		// request, delivered flags
		{"IAlltoallvParts", 2, func(c *Comm) func() {
			parts := warmParts(c)
			return func() {
				q := c.IAlltoallvParts(parts)
				for {
					if _, _, ok := q.Next(); !ok {
						break
					}
				}
				q.Wait()
			}
		}},
	}
	for _, tc := range cases {
		got := mallocsPerCall(t, p, calls, tc.body)
		if got > tc.max+0.25 {
			t.Errorf("%s: %.2f mallocs per call per rank, want at most %v", tc.name, got, tc.max)
		}
	}
}

// warmParts is a personalized send row of one two-word part per member.
func warmParts(c *Comm) [][]int64 {
	parts := make([][]int64, c.Size())
	for d := range parts {
		parts[d] = []int64{int64(c.Rank()), int64(d)}
	}
	return parts
}

// mallocsPerCall runs the body built for each rank calls times on every
// rank of a p-rank in-process world, after one warm-up call, and returns
// the mallocs per call per rank: those counted between two barriers, less
// those of the same window with no calls in it (the barriers' own).
func mallocsPerCall(t *testing.T, p, calls int, build func(c *Comm) func()) float64 {
	t.Helper()
	var window [2]uint64
	_, err := Run(p, func(c *Comm) error {
		body := build(c)
		body()
		for k, n := range []int{calls, 0} {
			var ms runtime.MemStats
			var start uint64
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&ms)
				start = ms.Mallocs
			}
			c.Barrier()
			for i := 0; i < n; i++ {
				body()
			}
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&ms)
				window[k] = ms.Mallocs - start
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return (float64(window[0]) - float64(window[1])) / float64(calls*p)
}
