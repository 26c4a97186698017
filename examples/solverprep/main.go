// Solverprep demonstrates the paper's motivating application (Section I):
// preprocessing a sparse linear system for a distributed direct solver. A
// maximum matching of the nonzero pattern gives a row permutation that puts
// nonzeros on the diagonal (a "maximum transversal"), which solvers like
// SuperLU_DIST apply before factorization. The paper's point is that when
// the matrix is already distributed, the matching must be computed in
// distributed memory too — gathering it to one node costs more than the
// matching itself (Fig. 9).
package main

import (
	"fmt"
	"log"

	"mcmdist"
)

func main() {
	// A KKT-style saddle-point system: structurally tricky because its
	// trailing diagonal block is entirely zero, so the identity permutation
	// leaves many zero diagonal entries.
	g, err := mcmdist.TableII("nlpkkt200", 10)
	if err != nil {
		log.Fatal(err)
	}
	n := g.Rows()
	fmt.Printf("sparse system: %v\n", g)
	fmt.Printf("zero-free diagonal before permutation: %d of %d\n", diagNonzeros(g, nil), n)

	// Distributed maximum matching of the pattern.
	m, stats, err := mcmdist.MaximumMatching(g, mcmdist.Options{
		Procs:   16,
		Init:    mcmdist.DynamicMindegreeInit,
		Permute: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("maximum transversal: %d of %d (structural rank), %d phases\n",
		m.Cardinality(), n, stats.Phases)

	// Row permutation from the matching: column j's matched entry lands on
	// the diagonal.
	perm := mcmdist.MaximumTransversal(g, m)

	fmt.Printf("zero-free diagonal after permutation:  %d of %d\n", diagNonzeros(g, perm), n)
	if got := diagNonzeros(g, perm); got != m.Cardinality() {
		log.Fatalf("permutation inconsistent: %d diagonal nonzeros, matching %d", got, m.Cardinality())
	}
	fmt.Println("the permuted system has a maximum zero-free diagonal; ready for factorization")
}

// diagNonzeros counts nonzero diagonal entries of the (optionally row-
// permuted) matrix: entry (i, j) sits on the diagonal when perm[i] == j.
func diagNonzeros(g *mcmdist.Graph, perm []int) int {
	n := g.Rows()
	count := 0
	for i := 0; i < n; i++ {
		pi := i
		if perm != nil {
			pi = perm[i]
		}
		if g.HasEdge(i, pi) {
			count++
		}
	}
	return count
}
