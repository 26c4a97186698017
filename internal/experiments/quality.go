package experiments

import (
	"fmt"
	"io"

	"mcmdist/internal/core"
	"mcmdist/internal/dvec"
	"mcmdist/internal/gen"
	"mcmdist/internal/grid"
	"mcmdist/internal/matching"
	"mcmdist/internal/obs"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
	"mcmdist/internal/spmv"
)

// QualityRow reports the approximation ratio of the three maximal-matching
// initializers on one matrix.
type QualityRow struct {
	Matrix string
	MCM    int
	Ratio  map[string]float64 // initializer name -> |maximal| / |MCM|
}

// InitQuality reproduces the approximation-ratio comparison behind Section
// VI-A: sequential Karp–Sipser usually achieves the highest ratio, dynamic
// mindegree comes close, greedy trails. Ratios are computed with the serial
// heuristics (the distributed renditions share their processing rules).
func InitQuality(w io.Writer, scale int, names []string) []QualityRow {
	if names == nil {
		names = allSuiteNames()
	}
	algos := map[string]func(*spmat.CSC) *matching.Matching{
		"greedy":       matching.Greedy,
		"karp-sipser":  func(a *spmat.CSC) *matching.Matching { return matching.KarpSipser(a, 1) },
		"dynmindegree": matching.DynMinDegree,
	}
	var rows []QualityRow
	for _, name := range names {
		sp, err := gen.FindSpec(name)
		if err != nil {
			panic(err)
		}
		a := gen.MustGenerate(sp, scale)
		mcm := matching.HopcroftKarp(a, nil).Cardinality()
		row := QualityRow{Matrix: name, MCM: mcm, Ratio: map[string]float64{}}
		for alg, f := range algos {
			c := f(a).Cardinality()
			if mcm > 0 {
				row.Ratio[alg] = float64(c) / float64(mcm)
			} else {
				row.Ratio[alg] = 1
			}
		}
		rows = append(rows, row)
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "Initializer quality\t|MCM|\tgreedy\tkarp-sipser\tdynmindegree")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.4f\t%.4f\t%.4f\n",
			r.Matrix, r.MCM, r.Ratio["greedy"], r.Ratio["karp-sipser"], r.Ratio["dynmindegree"])
	}
	tw.Flush()
	return rows
}

// DynamicsRow is one iteration of the frontier-size trace.
type DynamicsRow struct {
	Phase, Iteration, FrontierSize, NewPaths int
}

// FrontierDynamics reproduces the introduction's motivation for sparse
// frontiers: "the size of the frontier during augmenting path searches
// changes dramatically as the number of unmatched vertices decreases". It
// traces every iteration of a full MCM run.
func FrontierDynamics(w io.Writer, name string, scale, procs int) []DynamicsRow {
	sp, err := gen.FindSpec(name)
	if err != nil {
		panic(err)
	}
	a := gen.MustGenerate(sp, scale)
	col := obs.NewCollector(procs, obs.Options{TimeSeries: true})
	cfg := core.Config{Procs: procs, Init: core.InitGreedy, Permute: true, Seed: 23, Obs: col}
	if _, err := core.Solve(a, cfg); err != nil {
		panic(err)
	}
	var rows []DynamicsRow
	for _, s := range col.Recorder(0).Samples() {
		rows = append(rows, DynamicsRow{
			Phase: s.Phase, Iteration: s.Iteration,
			FrontierSize: s.Frontier, NewPaths: s.NewPaths,
		})
	}
	tw := newTab(w)
	fmt.Fprintf(tw, "Frontier dynamics (%s, p=%d)\tphase\tfrontier\tpaths\n", name, procs)
	for _, r := range rows {
		fmt.Fprintf(tw, "iter %d\t%d\t%d\t%d\n", r.Iteration, r.Phase, r.FrontierSize, r.NewPaths)
	}
	tw.Flush()
	return rows
}

// TreeBalanceRow reports alternating-tree size balance under one semiring.
type TreeBalanceRow struct {
	Matrix   string
	Semiring string
	MaxTree  int     // largest alternating tree (rows owned) in phase 1
	Balance  float64 // max tree size / mean tree size
}

// TreeBalance quantifies the paper's semiring guidance: "(select2nd,
// randRoot) ... is useful to randomly distribute vertices among
// alternating trees, ensuring better balance of tree sizes". It grows the
// first full MS-BFS phase from the empty matching under each semiring and
// measures how evenly rows distribute over the root trees.
func TreeBalance(w io.Writer, scale, procs int, names []string) []TreeBalanceRow {
	if names == nil {
		names = []string{"ljournal-2008", "cage15"}
	}
	side := grid.Square(procs)
	var rows []TreeBalanceRow
	for _, name := range names {
		a := suiteMatrix(name, scale)
		blocks := spmat.DistributeRanks(a, side, side, nil)
		for _, op := range []semiring.AddOp{semiring.MinParent, semiring.RandRoot} {
			var rootOf []int64
			err := core.RunDistributed(nil, side, side, a.NRows, a.NCols, blocks,
				core.Config{Procs: side * side, AddOp: op}, nil, func(s *core.Solver) error {
					// One full-frontier SpMV sweep: every row's winning root.
					fc := dvec.NewSparseV(s.ColL)
					r := s.ColL.MyRange()
					for gi := r.Lo; gi < r.Hi; gi++ {
						fc.Append(gi, semiring.Self(int64(gi)))
					}
					fr := spmv.Mul(s.A, fc, op, s.RowL, nil)
					root := s.G.World.Rank() == 0
					full := fr.GatherVertices(root)
					if root {
						rootOf = make([]int64, len(full))
						for i, v := range full {
							rootOf[i] = v.Root
						}
					}
					return nil
				})
			if err != nil {
				panic(err)
			}
			counts := map[int64]int{}
			reached := 0
			for _, root := range rootOf {
				if root >= 0 {
					counts[root]++
					reached++
				}
			}
			maxTree := 0
			for _, c := range counts {
				if c > maxTree {
					maxTree = c
				}
			}
			balance := 0.0
			if len(counts) > 0 {
				balance = float64(maxTree) / (float64(reached) / float64(len(counts)))
			}
			rows = append(rows, TreeBalanceRow{
				Matrix: name, Semiring: op.String(), MaxTree: maxTree, Balance: balance,
			})
		}
	}
	tw := newTab(w)
	fmt.Fprintf(tw, "Tree balance (p=%d, first sweep)\tsemiring\tmax tree\tmax/mean\n", side*side)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.2f\n", r.Matrix, r.Semiring, r.MaxTree, r.Balance)
	}
	tw.Flush()
	return rows
}
