package mpi

import "testing"

// TestPayloadsTakeBound: Take(n) returns exactly n values with capacity in
// [n, 2n), whether the buffer is fresh or recycled, and a zero n gets an
// empty non-nil slice (a present empty part must stay non-nil). A buffer
// put back with a capacity between two powers of two is trimmed to the
// lower one, so it never serves a request it would more than double.
func TestPayloadsTakeBound(t *testing.T) {
	var f Payloads
	check := func(n int, p []int64) {
		t.Helper()
		if len(p) != n || cap(p) < n || n > 0 && cap(p) >= 2*n {
			t.Fatalf("Take(%d) gave length %d capacity %d, want length %d and capacity in [%d, %d)", n, len(p), cap(p), n, n, 2*n)
		}
	}
	for n := 0; n <= 1025; n++ {
		p := f.Take(n)
		check(n, p)
		if n == 0 && p == nil {
			t.Fatal("Take(0) gave nil")
		}
		f.Put(p)
		check(n, f.Take(n)) // recycled: the buffer just put back
	}
	odd := make([]int64, 3, 100) // files under 64
	f.Put(odd)
	p := f.Take(33)
	check(33, p)
	if &p[0] != &odd[0] {
		t.Fatal("Take(33) did not reuse the buffer of capacity 100 filed under 64")
	}
	f.Put(odd)
	if p := f.Take(65); &p[0] == &odd[0] {
		t.Fatal("Take(65) got the buffer filed under 64")
	}
}

// TestPayloadsClassCap: a class keeps at most payloadsPerClass idle
// buffers; the rest of a burst is dropped to the collector.
func TestPayloadsClassCap(t *testing.T) {
	var f Payloads
	burst := make(map[*int64]bool)
	for i := 0; i < payloadsPerClass+5; i++ {
		p := make([]int64, 8)
		burst[&p[0]] = true
		f.Put(p)
	}
	if kept := len(f.free[3]); kept != payloadsPerClass {
		t.Fatalf("class 3 keeps %d idle buffers, want the cap %d", kept, payloadsPerClass)
	}
	reused := 0
	for i := 0; i < payloadsPerClass+5; i++ {
		if p := f.Take(8); burst[&p[0]] {
			reused++
		}
	}
	if reused != payloadsPerClass {
		t.Fatalf("%d of a burst of %d buffers came back, want %d", reused, payloadsPerClass+5, payloadsPerClass)
	}
}
