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
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"mcmdist/internal/core"
	"mcmdist/internal/experiments"
)

// params are the command-line values the experiments read.
type params struct {
	cfg    core.Config
	scale  int
	matrix string
}

// exps is the one experiment list: every -exp name in the order the flag
// help shows them. The ones marked all run, in this order, under -exp all.
var exps = []struct {
	name string
	all  bool
	run  func(w io.Writer, p params)
}{
	{"table2", true, func(w io.Writer, p params) { experiments.Table2(w, p.scale) }},
	{"fig3", true, func(w io.Writer, p params) { experiments.Fig3(w, p.cfg, min(p.scale, 9)) }},
	{"fig4", true, func(w io.Writer, p params) { experiments.Fig4(w, p.cfg, p.scale, nil, nil) }},
	{"fig5", true, func(w io.Writer, p params) { experiments.Fig5(w, p.cfg, p.scale, nil) }},
	{"fig6", true, func(w io.Writer, p params) { experiments.Fig6(w, p.cfg, []int{p.scale - 2, p.scale}, nil) }},
	{"fig7", true, func(w io.Writer, p params) { experiments.Fig7(w, p.cfg, p.scale, nil) }},
	{"fig8", true, func(w io.Writer, p params) { experiments.Fig8(w, p.cfg, min(p.scale, 9), nil) }},
	{"fig9", true, func(w io.Writer, p params) { experiments.Fig9(w, nil, 2048, 8) }},
	{"augment", true, func(w io.Writer, p params) {
		four := p.cfg
		four.Procs = 4 // the k < 2p² crossover is charted at p = 4
		experiments.AugmentCrossover(w, four, 16, nil)
	}},
	{"direction", true, func(w io.Writer, p params) { experiments.DirectionAblation(w, p.cfg, p.scale, nil) }},
	{"dirsweep", false, func(w io.Writer, p params) {
		experiments.DirectionSweep(w, p.cfg, []int{min(p.scale, 14), min(p.scale+1, 15), min(p.scale+2, 16)})
	}},
	{"enginesweep", false, func(w io.Writer, p params) { experiments.EngineSweep(w, p.cfg, p.matrix, p.scale) }},
	{"gridshape", true, func(w io.Writer, p params) { experiments.GridShapeAblation(w, p.scale, p.cfg.Procs) }},
	{"quality", true, func(w io.Writer, p params) { experiments.InitQuality(w, p.scale, nil) }},
	{"balance", true, func(w io.Writer, p params) { experiments.BalanceAblation(w, p.cfg, p.scale, nil) }},
	{"ssms", true, func(w io.Writer, p params) { experiments.SingleVsMultiSource(w, p.cfg, min(p.scale, 10), nil) }},
	{"treebalance", true, func(w io.Writer, p params) { experiments.TreeBalance(w, p.scale, p.cfg.Procs, nil) }},
	{"dynamics", false, func(w io.Writer, p params) { experiments.FrontierDynamics(w, "road_usa", p.scale, p.cfg.Procs) }},
}

func main() {
	p := params{cfg: core.Config{Procs: 16, Threads: 12}}
	names := make([]string, 0, len(exps)+1)
	for _, e := range exps {
		names = append(names, e.name)
	}
	flag.IntVar(&p.cfg.Procs, "procs", p.cfg.Procs, "simulated ranks (perfect square)")
	flag.IntVar(&p.cfg.Threads, "threads", p.cfg.Threads, "worker threads per rank (divides the modeled work term)")
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(append(names, "all"), ", "))
	flag.IntVar(&p.scale, "scale", 12, "matrix scale (~2^scale vertices per side)")
	flag.StringVar(&p.matrix, "matrix", "road_usa", "matrix -exp enginesweep runs on: a Table II stand-in name or g500/er/ssca (RMAT)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the experiment runs to this path")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile taken after the experiment runs to this path")
	flag.Parse()

	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if err := p.cfg.Validate(); err != nil {
		fail(err)
	}
	// The experiments divide by the thread count and take the square root
	// of the rank count; 0 means 1 for both, as in the solver.
	p.cfg.Procs, p.cfg.Threads = max(p.cfg.Procs, 1), max(p.cfg.Threads, 1)
	if err := experiments.CheckMatrix(p.matrix); err != nil {
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
	ok := false
	for _, e := range exps {
		switch {
		case *exp == "all" && e.all:
			fmt.Fprintf(w, "=== %s ===\n", e.name)
		case *exp != e.name:
			continue
		}
		e.run(w, p)
		fmt.Fprintln(w)
		ok = true
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown experiment %q\n", *exp)
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
