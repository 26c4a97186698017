package dvec

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// setBits lists base+i for every set bit i of b's words, padding bits
// included, in ascending order.
func setBits(b Bitmap, base int64) []int64 {
	var out []int64
	for i := 0; i < 64*len(b.Words); i++ {
		if b.Words[i>>6]&(1<<(uint(i)&63)) != 0 {
			out = append(out, base+int64(i))
		}
	}
	return out
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(200)
	for _, i := range []int{0, 1, 63, 64, 127, 128, 199} {
		b.Set(i)
	}
	for i := 0; i < 200; i++ {
		want := i == 0 || i == 1 || i == 63 || i == 64 || i == 127 || i == 128 || i == 199
		if b.Has(i) != want {
			t.Fatalf("Has(%d) = %v, want %v", i, b.Has(i), want)
		}
	}
	if len(setBits(b, 0)) != 7 {
		t.Fatalf("set bit count = %d, want 7", len(setBits(b, 0)))
	}
	got := setBits(b, 1000)
	want := []int64{1000, 1001, 1063, 1064, 1127, 1128, 1199}
	if len(got) != len(want) {
		t.Fatalf("set bits = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("set bits = %v, want %v", got, want)
		}
	}
	b.Clear()
	if len(setBits(b, 0)) != 0 {
		t.Fatal("Clear left bits set")
	}
}

func TestBitmapSparseRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		lo := rng.Intn(1000)
		seen := map[int64]bool{}
		var idx []int64
		for k := 0; k < rng.Intn(n); k++ {
			gi := int64(lo + rng.Intn(n))
			if !seen[gi] {
				seen[gi] = true
				idx = append(idx, gi)
			}
		}
		b := NewBitmap(n)
		b.SetIndices(idx, lo)
		if len(setBits(b, 0)) != len(idx) {
			t.Fatalf("set bit count = %d, want %d", len(setBits(b, 0)), len(idx))
		}
		back := setBits(b, int64(lo))
		sort.Slice(idx, func(a, c int) bool { return idx[a] < idx[c] })
		for i := range idx {
			if back[i] != idx[i] {
				t.Fatalf("roundtrip mismatch at %d: %d != %d", i, back[i], idx[i])
			}
		}
	}
}

func TestAsBitmapClearsBorrowedBuffer(t *testing.T) {
	buf := []int64{-1, -1, -1}
	b := AsBitmap(buf, 130)
	if len(setBits(b, 0)) != 0 {
		t.Fatal("AsBitmap did not clear the borrowed words")
	}
	if len(b.Words) != BitmapWords(130) {
		t.Fatalf("len(Words) = %d, want %d", len(b.Words), BitmapWords(130))
	}
}

// TestBitmapSetIndicesRejectsOutOfRange pins the wire-input check: an index
// in the padding bits past N, or below lo, panics with a dvec message and
// leaves the bitmap untouched instead of setting a stray bit.
func TestBitmapSetIndicesRejectsOutOfRange(t *testing.T) {
	const lo, n = 100, 70 // two words, 58 padding bits
	for _, gi := range []int64{lo + n, lo + 127, lo + 128, lo - 1, -5} {
		b := NewBitmap(n)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "dvec: ") {
					t.Errorf("index %d: panic %q, want a dvec: message", gi, msg)
				}
			}()
			b.SetIndices([]int64{lo, gi}, lo)
		}()
		if c := len(setBits(b, 0)); c > 1 {
			t.Errorf("index %d: set bit count = %d after the rejected index", gi, c)
		}
	}
	b := NewBitmap(n)
	b.SetIndices([]int64{lo, lo + n - 1}, lo)
	if len(setBits(b, 0)) != 2 {
		t.Fatalf("in-range ends: set bit count = %d, want 2", len(setBits(b, 0)))
	}
}
