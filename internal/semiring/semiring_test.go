package semiring

import (
	"testing"
	"testing/quick"
)

// vertex returns the Vertex with the given parent and root.
func vertex(parent, root int64) Vertex { return Vertex{Parent: parent, Root: root} }

func TestSelf(t *testing.T) {
	v := Self(5)
	if v.Parent != 5 || v.Root != 5 {
		t.Fatalf("Self(5) = %v", v)
	}
}

func TestVertexString(t *testing.T) {
	if got := vertex(2, 7).String(); got != "(2, 7)" {
		t.Fatalf("String = %q", got)
	}
}

func TestAddOpString(t *testing.T) {
	if MinParent.String() != "minparent" || RandRoot.String() != "randroot" ||
		RandParent.String() != "randparent" || MinRoot.String() != "minroot" {
		t.Fatal("AddOp names wrong")
	}
	if AddOp(9).String() != "AddOp(9)" {
		t.Fatal("unknown AddOp name wrong")
	}
}

func TestMinParentCombine(t *testing.T) {
	a, b := vertex(3, 10), vertex(1, 20)
	if got := MinParent.Combine(a, b); got != b {
		t.Fatalf("Combine = %v, want %v", got, b)
	}
	if got := MinParent.Combine(b, a); got != b {
		t.Fatalf("Combine reversed = %v, want %v", got, b)
	}
}

func TestCombineCommutative(t *testing.T) {
	for _, op := range []AddOp{MinParent, RandRoot, RandParent, MinRoot} {
		f := func(p1, r1, p2, r2 int16) bool {
			a, b := vertex(int64(p1), int64(r1)), vertex(int64(p2), int64(r2))
			return op.Combine(a, b) == op.Combine(b, a)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v not commutative: %v", op, err)
		}
	}
}

func TestCombineAssociative(t *testing.T) {
	for _, op := range []AddOp{MinParent, RandRoot, RandParent, MinRoot} {
		f := func(p1, r1, p2, r2, p3, r3 int16) bool {
			a, b, c := vertex(int64(p1), int64(r1)), vertex(int64(p2), int64(r2)), vertex(int64(p3), int64(r3))
			return op.Combine(op.Combine(a, b), c) == op.Combine(a, op.Combine(b, c))
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v not associative: %v", op, err)
		}
	}
}

func TestCombineIdempotent(t *testing.T) {
	for _, op := range []AddOp{MinParent, RandRoot, RandParent, MinRoot} {
		f := func(p, r int16) bool {
			a := vertex(int64(p), int64(r))
			return op.Combine(a, a) == a
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v not idempotent: %v", op, err)
		}
	}
}

func TestCombineClosed(t *testing.T) {
	// The winner must be one of the two candidates, never a mixture.
	for _, op := range []AddOp{MinParent, RandRoot, RandParent, MinRoot} {
		f := func(p1, r1, p2, r2 int16) bool {
			a, b := vertex(int64(p1), int64(r1)), vertex(int64(p2), int64(r2))
			got := op.Combine(a, b)
			return got == a || got == b
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v not closed: %v", op, err)
		}
	}
}

func TestRandRootSpreads(t *testing.T) {
	// Across many pairwise contests, randRoot should not systematically favor
	// the smaller root (that would be minRoot, not randRoot).
	smallerWins := 0
	const trials = 1000
	for i := 0; i < trials; i++ {
		a, b := vertex(0, int64(i)), vertex(1, int64(i+trials))
		if RandRoot.Combine(a, b).Root == a.Root {
			smallerWins++
		}
	}
	if smallerWins < trials/4 || smallerWins > 3*trials/4 {
		t.Fatalf("randRoot favored smaller root %d/%d times", smallerWins, trials)
	}
}

func TestMultiplySelect2nd(t *testing.T) {
	x := vertex(99, 42) // frontier entry: parent 99, root 42
	got := Multiply(7, x)
	if got.Parent != 7 {
		t.Fatalf("Multiply parent = %d, want frontier column 7", got.Parent)
	}
	if got.Root != 42 {
		t.Fatalf("Multiply root = %d, want inherited 42", got.Root)
	}
}

func TestMixDeterministic(t *testing.T) {
	if mix(12345) != mix(12345) {
		t.Fatal("mix not deterministic")
	}
	if mix(1) == mix(2) {
		t.Fatal("mix(1) == mix(2): suspicious collision")
	}
}
