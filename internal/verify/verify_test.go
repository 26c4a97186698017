package verify

import (
	"math/rand"
	"testing"

	"mcmdist/internal/matching"
	"mcmdist/internal/rmat"
	"mcmdist/internal/spmat"
)

func randomBipartite(rng *rand.Rand, nr, nc, m int) *spmat.CSC {
	c := spmat.NewCOO(nr, nc)
	for k := 0; k < m; k++ {
		c.Add(rng.Intn(nr), rng.Intn(nc))
	}
	return c.ToCSC()
}

func TestMaximumAcceptsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		nr, nc := 1+rng.Intn(50), 1+rng.Intn(50)
		a := randomBipartite(rng, nr, nc, rng.Intn(5*(nr+nc)))
		m := matching.HopcroftKarp(a, nil)
		if err := Maximum(a, m); err != nil {
			t.Fatalf("trial %d: oracle rejected: %v", trial, err)
		}
	}
}

func TestMaximumRejectsSubOptimal(t *testing.T) {
	// Path c0-r0-c1: perfect matching has size 2 (c0-r0? no...). Graph:
	// r0 adjacent to c0 and c1; r1 adjacent to c1. Matching {(r0,c1)} is
	// maximal but not maximum ({(r0,c0),(r1,c1)} is bigger).
	c := spmat.NewCOO(2, 2)
	c.Add(0, 0)
	c.Add(0, 1)
	c.Add(1, 1)
	a := c.ToCSC()
	m := matching.NewMatching(2, 2)
	m.Match(0, 1)
	if err := Maximum(a, m); err == nil {
		t.Fatal("sub-optimal matching certified as maximum")
	}
}

func TestMaximumRejectsInvalid(t *testing.T) {
	c := spmat.NewCOO(2, 2)
	c.Add(0, 0)
	a := c.ToCSC()
	m := matching.NewMatching(2, 2)
	m.MateR[0] = 1 // not an edge, inconsistent
	if err := Maximum(a, m); err == nil {
		t.Fatal("invalid matching certified")
	}
}

func TestMaximumOnStructures(t *testing.T) {
	for _, p := range []rmat.Params{rmat.G500, rmat.SSCA, rmat.ER} {
		a := rmat.MustGenerate(p, 7, 4, 3)
		m := matching.HopcroftKarp(a, nil)
		if err := Maximum(a, m); err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
	}
}

func TestMaximumEmptyGraph(t *testing.T) {
	a := spmat.NewCOO(4, 4).ToCSC()
	m := matching.NewMatching(4, 4)
	if err := Maximum(a, m); err != nil {
		t.Fatalf("empty graph empty matching rejected: %v", err)
	}
}

// TestKoenigCoverSizeAlwaysMatches is the property-based heart of the
// certificate: for every random graph, the cover built from the oracle
// matching has exactly the matching's size and covers all edges.
func TestKoenigCoverSizeAlwaysMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		nr, nc := 1+rng.Intn(30), 1+rng.Intn(30)
		a := randomBipartite(rng, nr, nc, rng.Intn(4*(nr+nc)))
		m := matching.HopcroftKarp(a, nil)
		if err := Maximum(a, m); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestHallViolator(t *testing.T) {
	// 3 columns all adjacent only to row 0: deficiency 2, and the violator
	// must contain all three columns with |N(S)| = 1.
	c := spmat.NewCOO(2, 3)
	c.Add(0, 0)
	c.Add(0, 1)
	c.Add(0, 2)
	a := c.ToCSC()
	m := matching.HopcroftKarp(a, nil)
	s := HallViolator(a, m)
	if len(s) != 3 {
		t.Fatalf("violator %v, want all 3 columns", s)
	}
	// Neighborhood check.
	nbr := map[int]bool{}
	for _, j := range s {
		for _, i := range a.Col(j) {
			nbr[i] = true
		}
	}
	if len(nbr) >= len(s) {
		t.Fatalf("|N(S)| = %d not < |S| = %d", len(nbr), len(s))
	}
}

func TestHallViolatorNilWhenSaturated(t *testing.T) {
	c := spmat.NewCOO(2, 2)
	c.Add(0, 0)
	c.Add(1, 1)
	a := c.ToCSC()
	m := matching.HopcroftKarp(a, nil)
	if s := HallViolator(a, m); s != nil {
		t.Fatalf("violator %v on a perfectly matchable graph", s)
	}
}

func TestHallViolatorPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		nr, nc := 1+rng.Intn(30), 1+rng.Intn(30)
		a := randomBipartite(rng, nr, nc, rng.Intn(3*(nr+nc)))
		m := matching.HopcroftKarp(a, nil)
		s := HallViolator(a, m)
		deficiency := a.NCols - m.Cardinality()
		if deficiency == 0 {
			if s != nil {
				t.Fatalf("trial %d: violator on saturated graph", trial)
			}
			continue
		}
		if s == nil {
			t.Fatalf("trial %d: deficiency %d but no violator", trial, deficiency)
		}
		nbr := map[int]bool{}
		for _, j := range s {
			for _, i := range a.Col(j) {
				nbr[i] = true
			}
		}
		if len(s)-len(nbr) != deficiency {
			t.Fatalf("trial %d: |S|-|N(S)| = %d, deficiency %d",
				trial, len(s)-len(nbr), deficiency)
		}
	}
}
