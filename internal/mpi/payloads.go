package mpi

import (
	"math/bits"
	"sync"
)

// The shape of a world's payload free list: one class per power-of-two
// capacity up to 2^27 values (a tcpnet frame cap of int64s), and at most
// payloadsPerClass idle buffers kept in each.
const (
	payloadClasses   = 28
	payloadsPerClass = 16
)

// Payloads is a world's free list of remote part buffers, the receive side
// of the payload-lifetime rule: a transport decodes each remote part into a
// buffer from Take and hands it to the mailbox with World.DeliverPost; the
// mailbox owns it until its generation retires in this process, then puts
// it back. Buffers are filed by power-of-two capacity, Take(n) never
// returns more than 2n capacity, and each class keeps a fixed number of
// idle buffers, so the list holds at most what a burst of generations had
// in flight. A world borrows its list from the process (payloadPool) when
// it starts and returns it once its rank goroutines have joined, so the
// next world in the process decodes into the buffers this one grew. A
// transport whose read loops outlive the world may still Take from or Put
// to the list after that; it stays a plain free list, so such a late buffer
// only changes hands. Safe for concurrent use.
type Payloads struct {
	mu   sync.Mutex
	free [payloadClasses][][]int64
}

// payloadPool lends each world its Payloads; the GC bounds what it keeps.
var payloadPool = sync.Pool{New: func() any { return new(Payloads) }}

// Payloads returns the world's free list of remote part buffers.
func (w *World) Payloads() *Payloads { return w.payloads }

// Take returns a buffer of length n, recycled when one of its class is
// idle. A zero n gives an empty non-nil slice. The caller must have bounded
// n by the input it decodes from before asking.
func (f *Payloads) Take(n int) []int64 {
	if n == 0 {
		return []int64{}
	}
	k := bits.Len(uint(n - 1)) // 2^k is the smallest power of two >= n
	if k >= payloadClasses {
		return make([]int64, n)
	}
	f.mu.Lock()
	if free := f.free[k]; len(free) > 0 {
		p := free[len(free)-1]
		free[len(free)-1] = nil
		f.free[k] = free[:len(free)-1]
		f.mu.Unlock()
		return p[:n]
	}
	f.mu.Unlock()
	return make([]int64, n, 1<<k)
}

// Put files p for reuse under the largest power of two its capacity holds,
// or drops it when that class is full. The caller gives up p.
func (f *Payloads) Put(p []int64) {
	c := cap(p)
	if c == 0 {
		return
	}
	k := bits.Len(uint(c)) - 1
	if k >= payloadClasses {
		return
	}
	f.mu.Lock()
	if len(f.free[k]) < payloadsPerClass {
		if f.free[k] == nil {
			f.free[k] = make([][]int64, 0, payloadsPerClass)
		}
		f.free[k] = append(f.free[k], p[:0:1<<k])
	}
	f.mu.Unlock()
}
