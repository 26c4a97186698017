// Distributed explores the machinery that makes MCM-DIST scale: it compares
// the three maximal-matching initializers (paper Fig. 3), the two
// augmentation strategies and the automatic k < 2p² switch (Section IV-B),
// and the effect of tree pruning (Fig. 8), all through the public API on a
// skewed power-law graph. The graph is distributed once and every solve
// reuses that distribution (the session API), and every cardinality is
// checked against the serial Hopcroft–Karp oracle.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"mcmdist"
)

func main() {
	g, err := mcmdist.TableII("ljournal-2008", 12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(g)
	const procs = 16

	ref, err := mcmdist.MaximumMatchingSerial(g, mcmdist.HopcroftKarp, nil)
	if err != nil {
		log.Fatal(err)
	}
	dg, err := mcmdist.Distribute(g, procs)
	if err != nil {
		log.Fatal(err)
	}
	defer dg.Close()
	solve := func(opts mcmdist.Options) *mcmdist.Stats {
		m, st, err := dg.MaximumMatching(opts)
		if err != nil {
			log.Fatal(err)
		}
		if m.Cardinality() != ref.Cardinality() {
			log.Fatalf("disagreement: Hopcroft–Karp %d vs MCM-DIST %d (%+v)", ref.Cardinality(), m.Cardinality(), opts)
		}
		return st
	}

	// --- Initializer comparison (the Fig. 3 experiment) ---
	fmt.Println("\ninitializers (p =", procs, "):")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  init\t|init|\tphases-left\t|MCM|")
	for _, tc := range []struct {
		name string
		init mcmdist.Initializer
	}{
		{"none", mcmdist.NoInit},
		{"greedy", mcmdist.GreedyInit},
		{"karp-sipser", mcmdist.KarpSipserInit},
		{"dyn-mindegree", mcmdist.DynamicMindegreeInit},
	} {
		st := solve(mcmdist.Options{Init: tc.init})
		if tc.init != mcmdist.NoInit {
			// The initializer alone must find exactly what it found
			// inside the full solve.
			m, _, err := dg.MaximalMatchingDistributed(tc.init, 1)
			if err != nil {
				log.Fatal(err)
			}
			if m.Cardinality() != st.InitCardinality || !g.IsMaximal(m) {
				log.Fatalf("%s: initializer alone found %d, inside the solve %d", tc.name, m.Cardinality(), st.InitCardinality)
			}
		}
		fmt.Fprintf(tw, "  %s\t%d\t%d\t%d\n", tc.name, st.InitCardinality, st.Phases, st.Cardinality)
	}
	tw.Flush()

	// --- Augmentation strategies ---
	fmt.Println("\naugmentation (k < 2p² =", 2*procs*procs, "switches to path-parallel):")
	for _, tc := range []struct {
		name string
		aug  mcmdist.Augmentation
	}{
		{"auto", mcmdist.AutoAugment},
		{"level-parallel", mcmdist.LevelParallel},
		{"path-parallel (RMA)", mcmdist.PathParallel},
	} {
		st := solve(mcmdist.Options{Init: mcmdist.GreedyInit, Augment: tc.aug})
		fmt.Printf("  %-20s |M|=%d, %d paths applied (level %d / path %d)\n",
			tc.name, st.Cardinality, st.AugmentedPaths,
			st.LevelParallelAugments, st.PathParallelAugments)
	}

	// --- Pruning ablation ---
	fmt.Println("\npruning satisfied alternating trees (Fig. 8):")
	for _, disable := range []bool{false, true} {
		st := solve(mcmdist.Options{Init: mcmdist.GreedyInit, DisablePrune: disable})
		label := "on "
		if disable {
			label = "off"
		}
		spmv := st.CommByOp["spmv"]
		fmt.Printf("  prune %s: SpMV moved %d words over %d iterations\n",
			label, spmv.Words, st.Iterations)
	}

	fmt.Printf("\nHopcroft–Karp (serial) and every MCM-DIST solve agree: |M| = %d\n", ref.Cardinality())
}
