// Command bench regenerates the tables and figures of the paper's
// evaluation section (Azad & Buluç, IPDPS 2016, Section VI) on the
// simulated distributed-memory runtime.
//
// Usage:
//
//	bench -exp table2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|augment|enginesweep|...|all
//	      [-scale N] [-matrix NAME] [-procs P] [-threads T]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Scaling figures report times from the alpha-beta cost model (see
// internal/costmodel) next to measured host wall clock where the figure
// calls for it (fig7); EXPERIMENTS.md compares their shapes against the
// paper's. Larger -scale values sharpen the shapes but take longer.
//
// The experiments take only the rank count (-procs, a perfect square) and
// the thread count (-threads) from the command line; every other solver
// option is fixed per experiment, or is the option it sweeps.
// -cpuprofile and -memprofile write pprof profiles covering the experiment
// runs.
//
// Measuring a single solve is not this command's job: the repo benchmark
// (benchmark/README.md) times solves end to end and layer by layer, and
// cmd/mcm writes a solve's trace and time-series artifacts.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"mcmdist/internal/core"
	"mcmdist/internal/experiments"
)

func main() {
	cfg := core.Config{Procs: 16, Threads: 12}
	flag.IntVar(&cfg.Procs, "procs", cfg.Procs, "simulated ranks (perfect square)")
	flag.IntVar(&cfg.Threads, "threads", cfg.Threads, "worker threads per rank (divides the modeled work term)")
	exp := flag.String("exp", "all", "experiment to run: table2, fig3..fig9, augment, direction, dirsweep, enginesweep, gridshape, graft, quality, balance, ssms, treebalance, dynamics, all")
	scale := flag.Int("scale", 12, "matrix scale (~2^scale vertices per side)")
	matrix := flag.String("matrix", "road_usa", "matrix -exp enginesweep runs on: a Table II stand-in name or g500/er/ssca (RMAT)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the experiment runs to this path")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile taken after the experiment runs to this path")
	flag.Parse()

	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if err := cfg.Validate(); err != nil {
		fail(err)
	}
	// The experiments divide by the thread count and take the square root
	// of the rank count; 0 means 1 for both, as in the solver.
	cfg.Procs, cfg.Threads = max(cfg.Procs, 1), max(cfg.Threads, 1)
	if err := experiments.CheckMatrix(*matrix); err != nil {
		fail(err)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	w := os.Stdout
	runOne := func(name string) bool {
		switch name {
		case "table2":
			experiments.Table2(w, *scale)
		case "fig3":
			experiments.Fig3(w, cfg, min(*scale, 9))
		case "fig4":
			experiments.Fig4(w, cfg, *scale, nil, nil)
		case "fig5":
			experiments.Fig5(w, cfg, *scale, nil)
		case "fig6":
			experiments.Fig6(w, cfg, []int{*scale - 2, *scale}, nil)
		case "fig7":
			experiments.Fig7(w, cfg, *scale, nil)
		case "fig8":
			experiments.Fig8(w, cfg, min(*scale, 9), nil)
		case "fig9":
			experiments.Fig9(w, nil, 2048, 8)
		case "augment":
			four := cfg
			four.Procs = 4 // the k < 2p² crossover is charted at p = 4
			experiments.AugmentCrossover(w, four, 16, nil)
		case "direction":
			experiments.DirectionAblation(w, cfg, *scale, nil)
		case "dirsweep":
			experiments.DirectionSweep(w, cfg, []int{min(*scale, 14), min(*scale+1, 15), min(*scale+2, 16)})
		case "enginesweep":
			experiments.EngineSweep(w, cfg, *matrix, *scale)
		case "gridshape":
			experiments.GridShapeAblation(w, *scale, cfg.Procs)
		case "graft":
			experiments.GraftAblation(w, cfg, *scale, nil)
		case "quality":
			experiments.InitQuality(w, *scale, nil)
		case "balance":
			experiments.BalanceAblation(w, cfg, *scale, nil)
		case "ssms":
			experiments.SingleVsMultiSource(w, cfg, min(*scale, 10), nil)
		case "treebalance":
			experiments.TreeBalance(w, *scale, cfg.Procs, nil)
		case "dynamics":
			experiments.FrontierDynamics(w, "road_usa", *scale, cfg.Procs)
		default:
			return false
		}
		fmt.Fprintln(w)
		return true
	}

	ok := true
	if *exp == "all" {
		for _, name := range []string{"table2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "augment", "direction", "gridshape", "graft", "quality", "balance", "ssms", "treebalance"} {
			fmt.Fprintf(w, "=== %s ===\n", name)
			runOne(name)
		}
	} else if !runOne(*exp) {
		fmt.Fprintf(os.Stderr, "bench: unknown experiment %q\n", *exp)
		ok = false
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fail(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
		f.Close()
	}
	if !ok {
		os.Exit(2)
	}
}

// fail prints err on one line and exits 1.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}
