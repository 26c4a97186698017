// Certificates shows how to audit a matching without trusting any solver:
// the König–Egerváry vertex cover certifies maximality, and the Hall
// violator certifies structural deficiency. The input is a power-law web
// graph whose maximum matching leaves most columns unmatched.
package main

import (
	"fmt"
	"log"

	"mcmdist"
)

func main() {
	g, err := mcmdist.TableII("wb-edu", 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(g)

	m, _, err := mcmdist.MaximumMatching(g, mcmdist.Options{
		Procs: 9,
		Init:  mcmdist.DynamicMindegreeInit,
	})
	if err != nil {
		log.Fatal(err)
	}
	def := g.Cols() - m.Cardinality()
	fmt.Printf("|M| = %d, deficiency %d\n", m.Cardinality(), def)

	// 1. König: a vertex cover of size |M| proves no larger matching exists.
	if err := g.VerifyMaximum(m); err != nil {
		log.Fatalf("matching is NOT maximum: %v", err)
	}
	fmt.Println("König certificate: matching is maximum")

	// 2. Hall: a set S of columns with |N(S)| < |S| proves the columns can
	// never be perfectly matched, independent of the algorithm.
	s := g.HallViolator(m)
	if def > 0 {
		nbr := map[int64]bool{}
		for _, j := range s {
			if r := m.MateC[j]; r != mcmdist.Unmatched {
				nbr[r] = true
			}
		}
		fmt.Printf("Hall violator: |S| = %d columns with |N(S)| = %d neighbors (gap %d = deficiency)\n",
			len(s), len(nbr), len(s)-len(nbr))
		if len(s)-len(nbr) != def {
			log.Fatal("Hall violator does not account for the deficiency")
		}
	}
}
