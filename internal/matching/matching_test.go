package matching

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mcmdist/internal/gen"
	"mcmdist/internal/rmat"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

func tiny(t *testing.T, nr, nc int, edges ...[2]int) *spmat.CSC {
	t.Helper()
	c := spmat.NewCOO(nr, nc)
	for _, e := range edges {
		c.Add(e[0], e[1])
	}
	return c.ToCSC()
}

func randomBipartite(rng *rand.Rand, nr, nc, m int) *spmat.CSC {
	c := spmat.NewCOO(nr, nc)
	for k := 0; k < m; k++ {
		c.Add(rng.Intn(nr), rng.Intn(nc))
	}
	return c.ToCSC()
}

func TestMatchingBasics(t *testing.T) {
	m := NewMatching(3, 4)
	if m.Cardinality() != 0 {
		t.Fatal("fresh matching not empty")
	}
	m.Match(1, 2)
	if m.Cardinality() != 1 || m.MateR[1] != 2 || m.MateC[2] != 1 {
		t.Fatalf("Match bookkeeping wrong: %+v", m)
	}
	cl := m.Clone()
	cl.Match(0, 0)
	if m.Cardinality() != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	a := tiny(t, 2, 2, [2]int{0, 0}, [2]int{1, 1})
	m := NewMatching(2, 2)
	m.Match(0, 0)
	if err := m.Validate(a); err != nil {
		t.Fatalf("valid matching rejected: %v", err)
	}
	bad := m.Clone()
	bad.MateR[0] = 1 // (0,1) is not an edge and MateC[1] disagrees
	if err := bad.Validate(a); err == nil {
		t.Fatal("inconsistent mates accepted")
	}
	bad2 := NewMatching(2, 2)
	bad2.MateR[0] = 1
	bad2.MateC[1] = 0
	if err := bad2.Validate(a); err == nil {
		t.Fatal("non-edge matching accepted")
	}
	bad3 := NewMatching(2, 2)
	bad3.MateR[0] = 5
	if err := bad3.Validate(a); err == nil {
		t.Fatal("out-of-range mate accepted")
	}
	if err := NewMatching(3, 2).Validate(a); err == nil {
		t.Fatal("wrong-size matching accepted")
	}
}

func TestIsMaximal(t *testing.T) {
	a := tiny(t, 2, 2, [2]int{0, 0}, [2]int{1, 1})
	m := NewMatching(2, 2)
	if m.IsMaximal(a) {
		t.Fatal("empty matching reported maximal on a matchable graph")
	}
	m.Match(0, 0)
	m.Match(1, 1)
	if !m.IsMaximal(a) {
		t.Fatal("perfect matching not maximal")
	}
}

func maximalAlgos() map[string]func(*spmat.CSC) *Matching {
	return map[string]func(*spmat.CSC) *Matching{
		"greedy":       Greedy,
		"karp-sipser":  func(a *spmat.CSC) *Matching { return KarpSipser(a, 1) },
		"dynmindegree": DynMinDegree,
	}
}

func TestMaximalAlgorithmsAreValidAndMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 15; trial++ {
		nr, nc := 1+rng.Intn(60), 1+rng.Intn(60)
		a := randomBipartite(rng, nr, nc, rng.Intn(6*(nr+nc)))
		for name, algo := range maximalAlgos() {
			m := algo(a)
			if err := m.Validate(a); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if !m.IsMaximal(a) {
				t.Fatalf("trial %d %s: not maximal", trial, name)
			}
		}
	}
}

func TestMaximalApproximationRatio(t *testing.T) {
	// Any maximal matching has cardinality >= MCM/2 (Section II).
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		a := randomBipartite(rng, 50, 50, 200)
		opt := HopcroftKarp(a, nil).Cardinality()
		for name, algo := range maximalAlgos() {
			c := algo(a).Cardinality()
			if 2*c < opt {
				t.Fatalf("trial %d %s: cardinality %d < half of optimal %d", trial, name, c, opt)
			}
		}
	}
}

func TestKarpSipserDegreeOneChains(t *testing.T) {
	// A path graph r0-c0-r1-c1-...: Karp-Sipser's degree-1 rule finds the
	// perfect matching where pure random matching can fail.
	const n = 20
	c := spmat.NewCOO(n, n)
	for k := 0; k < n; k++ {
		c.Add(k, k)
		if k+1 < n {
			c.Add(k+1, k)
		}
	}
	a := c.ToCSC()
	m := KarpSipser(a, 7)
	if m.Cardinality() != n {
		t.Fatalf("Karp-Sipser found %d on a chain with perfect matching %d", m.Cardinality(), n)
	}
}

func TestMCMAlgorithmsAgreeWithOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		nr, nc := 1+rng.Intn(50), 1+rng.Intn(50)
		a := randomBipartite(rng, nr, nc, rng.Intn(5*(nr+nc)))
		if err := certifyMaximum(a, HopcroftKarp(a, nil)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestMCMWithInitializers(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 8; trial++ {
		a := randomBipartite(rng, 40, 45, 250)
		for initName, initAlgo := range maximalAlgos() {
			init := initAlgo(a)
			if err := certifyMaximum(a, HopcroftKarp(a, init)); err != nil {
				t.Fatalf("%s+hopcroft-karp: %v", initName, err)
			}
			// init must not have been mutated.
			if err := init.Validate(a); err != nil {
				t.Fatalf("%s: init mutated: %v", initName, err)
			}
		}
	}
}

func TestMCMOnStructuredGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("structured suite in -short mode")
	}
	for _, sp := range gen.Suite() {
		a := gen.MustGenerate(sp, 7)
		if err := certifyMaximum(a, HopcroftKarp(a, nil)); err != nil {
			t.Errorf("%s: %v", sp.Name, err)
		}
	}
}

func TestMCMOnRMAT(t *testing.T) {
	for _, p := range []rmat.Params{rmat.G500, rmat.SSCA, rmat.ER} {
		a := rmat.MustGenerate(p, 8, 4, 11)
		if err := certifyMaximum(a, HopcroftKarp(a, nil)); err != nil {
			t.Errorf("rmat %+v: %v", p, err)
		}
	}
}

// expectMaximum certifies HK's matching of a and checks its cardinality.
func expectMaximum(t *testing.T, a *spmat.CSC, init *Matching, want int) {
	t.Helper()
	m := HopcroftKarp(a, init)
	if err := certifyMaximum(a, m); err != nil {
		t.Fatal(err)
	}
	if got := m.Cardinality(); got != want {
		t.Errorf("|M| = %d, want %d", got, want)
	}
}

func TestPerfectMatchingOnIdentity(t *testing.T) {
	const n = 30
	c := spmat.NewCOO(n, n)
	for k := 0; k < n; k++ {
		c.Add(k, k)
	}
	expectMaximum(t, c.ToCSC(), nil, n)
}

func TestStructurallyDeficient(t *testing.T) {
	// 4 columns all adjacent only to row 0: MCM = 1.
	a := tiny(t, 3, 4, [2]int{0, 0}, [2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3})
	expectMaximum(t, a, nil, 1)
}

func TestEmptyGraph(t *testing.T) {
	a := tiny(t, 5, 5)
	expectMaximum(t, a, nil, 0)
	for name, algo := range maximalAlgos() {
		if got := algo(a).Cardinality(); got != 0 {
			t.Errorf("%s: %d on empty graph", name, got)
		}
	}
}

func TestZeroDimensions(t *testing.T) {
	expectMaximum(t, tiny(t, 0, 0), nil, 0)
}

// TestDeficiencyClosed checks the Section II invariant |M ⊕ P| = |M| + |P|
// indirectly: starting Hopcroft–Karp from a maximal matching must close
// exactly the deficiency, leaving no augmenting path.
func TestDeficiencyClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomBipartite(rng, 80, 80, 240)
	init := Greedy(a)
	m := HopcroftKarp(a, init)
	if err := certifyMaximum(a, m); err != nil {
		t.Fatalf("Hopcroft-Karp from greedy: %v", err)
	}
	if init.Cardinality() > m.Cardinality() {
		t.Fatal("augmentation lost edges")
	}
}

// ladder returns the n x n graph whose column k is adjacent to rows k and
// k+1, with the matching ck-r{k+1} for k < n-1: it leaves c{n-1} and r0
// unmatched, and the unique augmenting path traverses the whole ladder.
func ladder(n int) (*spmat.CSC, *Matching) {
	c := spmat.NewCOO(n, n)
	for k := 0; k < n; k++ {
		c.Add(k, k)
		if k+1 < n {
			c.Add(k+1, k)
		}
	}
	init := NewMatching(n, n)
	for k := 0; k < n-1; k++ {
		init.Match(k+1, k)
	}
	return c.ToCSC(), init
}

// TestLongPathAugmentation exercises a graph whose only augmenting path is
// long: a ladder forcing O(n)-length alternating paths.
func TestLongPathAugmentation(t *testing.T) {
	const n = 400
	a, init := ladder(n)
	expectMaximum(t, a, init, n)
}

// TestCertifyMaximumCatchesAugmentingPath checks the Berge check itself: a
// valid matching one short of maximum, whose one augmenting path is
// hundreds of edges long, must be refused, and so must an invalid one.
func TestCertifyMaximumCatchesAugmentingPath(t *testing.T) {
	a, init := ladder(400)
	if err := certifyMaximum(a, init); err == nil {
		t.Fatal("matching with an augmenting path certified as maximum")
	}
	bad := HopcroftKarp(a, nil)
	bad.MateR[0] = semiring.None
	if err := certifyMaximum(a, bad); err == nil {
		t.Fatal("inconsistent mates certified as maximum")
	}
}

func TestKarpSipserSeedsAllValid(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randomBipartite(rng, 30, 30, 120)
	for seed := int64(0); seed < 5; seed++ {
		m := KarpSipser(a, seed)
		if err := m.Validate(a); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !m.IsMaximal(a) {
			t.Fatalf("seed %d: not maximal", seed)
		}
	}
}

func BenchmarkMaximalInitializers(b *testing.B) {
	a := rmat.MustGenerate(rmat.G500, 13, 8, 5)
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Greedy(a)
		}
	})
	b.Run("karp-sipser", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			KarpSipser(a, int64(i))
		}
	})
	b.Run("dynmindegree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DynMinDegree(a)
		}
	})
}

func BenchmarkMCMAlgorithms(b *testing.B) {
	a := rmat.MustGenerate(rmat.G500, 13, 8, 5)
	b.Run("hopcroft-karp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			HopcroftKarp(a, nil)
		}
	})
}

// TestQuickAllAlgorithmsAgree is the property-based heart of the package:
// for arbitrary random graphs, Hopcroft–Karp (cold, and warm-started from
// every initializer) returns a structurally valid matching with no
// augmenting path, and every initializer returns a valid maximal matching.
func TestQuickAllAlgorithmsAgree(t *testing.T) {
	f := func(nr, nc uint8, seed int64) bool {
		rows, cols := int(nr%40)+1, int(nc%40)+1
		rng := rand.New(rand.NewSource(seed))
		a := randomBipartite(rng, rows, cols, rng.Intn(4*(rows+cols)))
		if certifyMaximum(a, HopcroftKarp(a, nil)) != nil {
			return false
		}
		for _, init := range maximalAlgos() {
			im := init(a)
			if im.Validate(a) != nil || !im.IsMaximal(a) {
				return false
			}
			if certifyMaximum(a, HopcroftKarp(a, im)) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMonotoneImprovement: warm-starting Hopcroft–Karp from each
// initializer never loses cardinality, and the heuristics' cardinalities
// stay within a factor of two of each other.
func TestMonotoneImprovement(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := randomBipartite(rng, 60, 60, 200)
	prev := 0
	for _, init := range maximalAlgos() {
		m := init(a)
		if c := m.Cardinality(); c < prev/2 {
			t.Fatalf("wild cardinality swings between heuristics")
		} else {
			prev = c
		}
		full := HopcroftKarp(a, m)
		if full.Cardinality() < m.Cardinality() {
			t.Fatal("HK lost cardinality from warm start")
		}
	}
}
