package dvec

import (
	"fmt"
)

// Bitmap is a dense bitset over a local index range [0, N): the visited-set
// representation the pull-direction SpMV uses on dense iterations and the
// initializers' matched-row and matched-column sets, where a membership test
// must be one word load + mask. The word type is int64, not uint64, so a
// bitmap can live in a buffer borrowed from the rt.Ctx arena (GetInts) and
// ride the buffer-lending collectives unchanged.
type Bitmap struct {
	Words []int64
	N     int
}

// BitmapWords is the number of int64 words a bitmap over n bits needs.
func BitmapWords(n int) int { return (n + 63) / 64 }

// NewBitmap allocates a cleared bitmap over n bits.
func NewBitmap(n int) Bitmap {
	return Bitmap{Words: make([]int64, BitmapWords(n)), N: n}
}

// AsBitmap wraps a borrowed word buffer (cap >= BitmapWords(n)) as a bitmap
// over n bits and clears it — arena buffers carry whatever the previous
// borrower left.
func AsBitmap(buf []int64, n int) Bitmap {
	b := Bitmap{Words: buf[:BitmapWords(n)], N: n}
	b.Clear()
	return b
}

// Clear zeroes every bit: O(n/64) word stores.
func (b Bitmap) Clear() {
	for i := range b.Words {
		b.Words[i] = 0
	}
}

// Set marks bit i.
func (b Bitmap) Set(i int) { b.Words[i>>6] |= 1 << (uint(i) & 63) }

// Has reports whether bit i is set.
func (b Bitmap) Has(i int) bool { return b.Words[i>>6]&(1<<(uint(i)&63)) != 0 }

// SetIndices marks bit idx[k]-lo for every index in idx — the
// sparse→bitmap conversion for an id list over the slab starting at lo.
// The lists come off the wire, so an index outside [lo, lo+N) panics rather
// than setting a padding bit or indexing past the words.
func (b Bitmap) SetIndices(idx []int64, lo int) {
	for _, gi := range idx {
		off := gi - int64(lo)
		if uint64(off) >= uint64(b.N) {
			panic(fmt.Sprintf("dvec: bitmap index %d outside [%d,%d)", gi, lo, lo+b.N))
		}
		b.Set(int(off))
	}
}
