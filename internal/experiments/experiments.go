// Package experiments regenerates every table and figure of the paper's
// evaluation section (Section VI) on the simulated distributed-memory
// runtime. Absolute times come from the alpha-beta cost model with
// Edison-like constants (the communication meters are exact; see
// internal/costmodel); the experiments are judged on shape — who wins, by
// what factor, where scaling flattens — as recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"mcmdist/internal/core"
	"mcmdist/internal/costmodel"
	"mcmdist/internal/gen"
	"mcmdist/internal/matching"
	"mcmdist/internal/mpi"
	"mcmdist/internal/rmat"
	"mcmdist/internal/spmat"
)

// model is the machine model all experiments project onto: Edison rescaled
// to the miniature input sizes (see costmodel.EdisonMini for the rationale).
var model = costmodel.EdisonMini

// The experiments take the bench's solver configuration as a parameter:
// Procs is the rank count of the single-p experiments and Threads the
// per-rank thread count (the paper's 12 OpenMP threads by default) that the
// hybrid configurations run with and the cost model divides local work by.
// Each experiment fixes the options it sweeps or ablates itself.

// run solves a under rc; it panics on configuration errors (experiment code
// paths use known-good configurations).
func run(a *spmat.CSC, rc core.Config) *core.Result {
	res, err := core.Solve(a, rc)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return res
}

// modeledTime evaluates the run on the Edison model: critical path over
// ranks of F/t + alpha*S + beta*W.
func modeledTime(res *core.Result, threads int) float64 {
	return model.CriticalTime(res.PerRank, threads)
}

// newTab returns a tabwriter for aligned experiment tables.
func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// rmatClasses are the synthetic class names suiteMatrix accepts besides the
// Table II stand-ins.
var rmatClasses = map[string]rmat.Params{"g500": rmat.G500, "er": rmat.ER, "ssca": rmat.SSCA}

// CheckMatrix reports whether name is a matrix the experiments can
// generate: a Table II stand-in or one of "g500", "er" and "ssca".
func CheckMatrix(name string) error {
	if _, ok := rmatClasses[name]; ok {
		return nil
	}
	_, err := gen.FindSpec(name)
	return err
}

// suiteMatrix generates one Table II stand-in at the given scale, or an
// RMAT matrix for the synthetic class names "g500", "er" and "ssca".
func suiteMatrix(name string, scale int) *spmat.CSC {
	if p, ok := rmatClasses[name]; ok {
		return rmat.MustGenerate(p, scale, 8, 17)
	}
	sp, err := gen.FindSpec(name)
	if err != nil {
		panic(err)
	}
	return gen.MustGenerate(sp, scale)
}

// MatrixInfo is one row of the Table II inventory.
type MatrixInfo struct {
	Name          string
	Class         string
	Rows, Cols    int
	NNZ           int
	MaximalCard   int // dynamic-mindegree maximal matching
	MCMCard       int // maximum matching (oracle)
	UnmatchedCols int // columns left unmatched by the maximal matching
}

// Table2 regenerates the Table II inventory: for every stand-in, size,
// sparsity, and the number of columns a maximal matching leaves unmatched
// (the paper's selection criterion was "several thousands of unmatched
// vertices after computing a maximal matching").
func Table2(w io.Writer, scale int) []MatrixInfo {
	var rows []MatrixInfo
	for _, sp := range gen.Suite() {
		a := gen.MustGenerate(sp, scale)
		maximal := matching.DynMinDegree(a)
		mcm := matching.HopcroftKarp(a, maximal)
		rows = append(rows, MatrixInfo{
			Name:          sp.Name,
			Class:         sp.Class.String(),
			Rows:          a.NRows,
			Cols:          a.NCols,
			NNZ:           a.NNZ(),
			MaximalCard:   maximal.Cardinality(),
			MCMCard:       mcm.Cardinality(),
			UnmatchedCols: a.NCols - maximal.Cardinality(),
		})
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "Table II (stand-ins)\tclass\trows\tcols\tnnz\t|maximal|\t|MCM|\tunmatched-after-maximal")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n",
			r.Name, r.Class, r.Rows, r.Cols, r.NNZ, r.MaximalCard, r.MCMCard, r.UnmatchedCols)
	}
	tw.Flush()
	return rows
}

// Fig3Row is one bar group of Fig. 3: total MCM time split into the
// initializer and the MCM phase, for one (matrix, initializer) pair.
type Fig3Row struct {
	Matrix    string
	Init      core.Init
	InitTime  float64 // modeled seconds spent in the initializer
	MCMTime   float64 // modeled seconds spent in MCM phases
	InitCard  int
	FinalCard int
}

// fig3Matrices are the four representative graphs of the figure.
var fig3Matrices = []string{"amazon-2008", "wikipedia-20070206", "cage15", "road_usa"}

// Fig3 regenerates Fig. 3: the impact of the initializer (greedy,
// Karp–Sipser, dynamic mindegree) on total MCM time, on cfg.Procs ranks.
func Fig3(w io.Writer, cfg core.Config, scale int) []Fig3Row {
	var rows []Fig3Row
	for _, name := range fig3Matrices {
		a := suiteMatrix(name, scale)
		for _, init := range []core.Init{core.InitGreedy, core.InitKarpSipser, core.InitDynMinDegree} {
			res := run(a, core.Config{Procs: cfg.Procs, Init: init, Permute: true, Seed: 5})
			bd := model.Breakdown(meterByOp(res), cfg.Threads)
			rows = append(rows, Fig3Row{
				Matrix:    name,
				Init:      init,
				InitTime:  bd[string(core.OpInit)],
				MCMTime:   sumExcept(bd, string(core.OpInit)),
				InitCard:  res.Stats.InitCardinality,
				FinalCard: res.Stats.Cardinality,
			})
		}
	}
	tw := newTab(w)
	fmt.Fprintf(tw, "Fig 3 (p=%d, t=%d)\tinit\tinit-time(s)\tmcm-time(s)\ttotal(s)\t|init|\t|MCM|\n", cfg.Procs, cfg.Threads)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%d\t%d\n",
			r.Matrix, r.Init, r.InitTime, r.MCMTime, r.InitTime+r.MCMTime, r.InitCard, r.FinalCard)
	}
	tw.Flush()
	return rows
}

// meterByOp flattens the per-category meter map for the cost model.
func meterByOp(res *core.Result) map[string]mpi.Meter {
	out := make(map[string]mpi.Meter, len(res.Stats.Meter))
	for op, m := range res.Stats.Meter {
		out[string(op)] = m
	}
	return out
}

func sumExcept(bd map[string]float64, skip string) float64 {
	var t float64
	for k, v := range bd {
		if k != skip {
			t += v
		}
	}
	return t
}
