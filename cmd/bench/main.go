// Command bench regenerates the tables and figures of the paper's
// evaluation section (Azad & Buluç, IPDPS 2016, Section VI) on the
// simulated distributed-memory runtime.
//
// Usage:
//
//	bench -exp table2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|augment|enginesweep|recovery|profile|all
//	      [-scale N] [-transport inproc|tcp] [solver flags: -procs P -threads T
//	      -engine E -init I -semiring S -augment A -direction push|pull|auto
//	      -compress -no-prune -no-permute -no-overlap -seed N]
//	      [-checkpoint-every K] [-fault none|crash|straggler|rma]
//	      [-fault-rank R] [-fault-at N] [-fault-delay D] [-watchdog D]
//	      [-json out.json] [-trace out.json] [-timeseries out.csv]
//	      [-metrics-addr :9090] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Scaling figures report times from the alpha-beta cost model (see
// internal/costmodel) next to measured host wall clock where the figure
// calls for it (fig7); EXPERIMENTS.md compares their shapes against the
// paper's. Larger -scale values sharpen the shapes but take longer.
//
// The solver flags are core.BindFlags's: the measured solve profile runs
// exactly that configuration, while the paper's experiments take its rank
// count, thread count and overlap switch and fix the options they sweep.
//
// -json writes a machine-readable envelope: the solver configuration,
// every experiment's row structs keyed by name, plus a measured solve
// profile (per-op wall seconds, exact communication meters, worker-pool
// utilization, heap traffic, and the per-iteration time-series). When
// checkpointing or fault injection is requested (-checkpoint-every, -fault,
// or -exp recovery) the envelope also carries a recovery section:
// checkpoint wall time, bytes serialized, and retry count next to the clean
// solve's wall clock. -cpuprofile and -memprofile write pprof profiles
// covering the experiment runs. -transport selects the backend the measured
// profile solve runs on (inproc, or tcp for a loopback-socket world) and is
// recorded in the envelope; results are bit-identical across backends, only
// the wall clocks change.
//
// The observability plane (docs/OBSERVABILITY.md) instruments the measured
// profile solve: -trace writes its span timeline as Chrome trace_event JSON
// (load in ui.perfetto.dev), -timeseries writes the per-iteration series as
// CSV, and -metrics-addr serves live Prometheus metrics at /metrics while
// the bench runs. With -transport tcp each loopback endpoint records into
// its own collector and the rank-0 endpoint collects the world at solve end
// — the real multi-process shipping protocol — so the trace, the series
// (including the envelope's time_series), and the registry are whole-world
// merges exactly as a distributed deployment would produce. -exp profile
// runs only that measured solve — the quickest way to produce a trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"mcmdist/internal/core"
	"mcmdist/internal/experiments"
	"mcmdist/internal/mpi"
	"mcmdist/internal/obs"
)

func main() {
	cfg := core.Config{Procs: 16, Threads: 12, Init: core.InitDynMinDegree, Permute: true, Seed: 9}
	core.BindFlags(flag.CommandLine, &cfg)
	exp := flag.String("exp", "all", "experiment to run: table2, fig3..fig9, augment, direction, dirsweep, enginesweep, gridshape, graft, quality, balance, ssms, dynamics, recovery, profile, all")
	scale := flag.Int("scale", 12, "matrix scale (~2^scale vertices per side)")
	matrix := flag.String("matrix", "road_usa", "matrix for the -json measured solve profile: a Table II stand-in name or g500/er/ssca (RMAT)")
	transport := flag.String("transport", "inproc", "transport backend for the measured solve profile: inproc, or tcp (loopback sockets, one endpoint per rank)")
	jsonPath := flag.String("json", "", "write machine-readable results (experiment rows + measured solve profile) to this path")
	checkpointEvery := flag.Int("checkpoint-every", 0, "checkpoint stride (phases) for the recovery benchmark; 0 means every phase")
	fault := flag.String("fault", "none", "fault injected into the recovery benchmark: none, crash, straggler, rma")
	faultRank := flag.Int("fault-rank", 1, "rank the fault is injected on")
	faultAt := flag.Int("fault-at", 8, "1-based collective (crash) or RMA op (rma) index that triggers the fault")
	faultDelay := flag.Duration("fault-delay", 100*time.Microsecond, "straggler sleep per triggering collective")
	watchdog := flag.Duration("watchdog", 0, "progress-watchdog timeout for the recovery benchmark; 0 leaves it off")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the experiment runs to this path")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile taken after the experiment runs to this path")
	tracePath := flag.String("trace", "", "write the measured profile solve's span timeline as Chrome trace_event JSON (Perfetto-loadable) to this path")
	seriesPath := flag.String("timeseries", "", "write the measured profile solve's per-iteration time-series as CSV to this path")
	metricsAddr := flag.String("metrics-addr", "", "serve live Prometheus metrics at this address's /metrics while the bench runs (e.g. :9090)")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", flag.Args())
		os.Exit(1)
	}
	if cfg.Threads < 1 {
		fmt.Fprintf(os.Stderr, "bench: -threads %d must be at least 1\n", cfg.Threads)
		os.Exit(1)
	}
	if !slices.Contains(mpi.Transports(), *transport) {
		fmt.Fprintf(os.Stderr, "bench: unknown -transport %q (have %v)\n", *transport, mpi.Transports())
		os.Exit(1)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	w := os.Stdout
	results := make(map[string]any)
	recOpts := experiments.RecoveryOptions{
		FaultKind:       *fault,
		FaultRank:       *faultRank,
		FaultAt:         *faultAt,
		FaultDelay:      *faultDelay,
		CheckpointEvery: *checkpointEvery,
		Watchdog:        *watchdog,
	}
	var recProfile *experiments.RecoveryProfile
	runOne := func(name string) bool {
		var rows any
		switch name {
		case "table2":
			rows = experiments.Table2(w, *scale)
		case "fig3":
			rows = experiments.Fig3(w, cfg, min(*scale, 9))
		case "fig4":
			rows = experiments.Fig4(w, cfg, *scale, nil, nil)
		case "fig5":
			rows = experiments.Fig5(w, cfg, *scale, nil)
		case "fig6":
			rows = experiments.Fig6(w, cfg, []int{*scale - 2, *scale}, nil)
		case "fig7":
			rows = experiments.Fig7(w, cfg, *scale, nil)
		case "fig8":
			rows = experiments.Fig8(w, cfg, min(*scale, 9), nil)
		case "fig9":
			rows = experiments.Fig9(w, nil, 2048, 8)
		case "augment":
			four := cfg
			four.Procs = 4 // the k < 2p² crossover is charted at p = 4
			rows = experiments.AugmentCrossover(w, four, 16, nil)
		case "direction":
			rows = experiments.DirectionAblation(w, cfg, *scale, nil)
		case "dirsweep":
			rows = experiments.DirectionSweep(w, cfg, []int{min(*scale, 14), min(*scale+1, 15), min(*scale+2, 16)})
		case "enginesweep":
			rows = experiments.EngineSweep(w, cfg, *matrix, *scale)
		case "gridshape":
			rows = experiments.GridShapeAblation(w, *scale, cfg.Procs)
		case "graft":
			rows = experiments.GraftAblation(w, cfg, *scale, nil)
		case "quality":
			rows = experiments.InitQuality(w, *scale, nil)
		case "balance":
			rows = experiments.BalanceAblation(w, cfg, *scale, nil)
		case "ssms":
			rows = experiments.SingleVsMultiSource(w, cfg, min(*scale, 10), nil)
		case "treebalance":
			rows = experiments.TreeBalance(w, *scale, cfg.Procs, nil)
		case "dynamics":
			experiments.FrontierDynamics(w, "road_usa", *scale, cfg.Procs)
		case "recovery":
			p := experiments.RecoveryBench(w, cfg, *matrix, *scale, recOpts)
			recProfile = &p
			rows = p
		case "profile":
			// Only the measured (observed) solve profile, handled below —
			// the quickest path to a trace or time-series artifact.
		default:
			return false
		}
		if rows != nil {
			results[name] = rows
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

	// The measured profile solve runs whenever a consumer wants its output:
	// the -json envelope, a trace or time-series artifact, a live metrics
	// endpoint, or -exp profile itself.
	needProfile := ok && (*jsonPath != "" || *tracePath != "" || *seriesPath != "" ||
		*metricsAddr != "" || *exp == "profile")
	if needProfile {
		var reg *obs.Registry
		if *metricsAddr != "" {
			reg = obs.NewRegistry()
			mux := http.NewServeMux()
			mux.Handle("/metrics", reg.Handler())
			go func() {
				if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
					fmt.Fprintf(os.Stderr, "bench: metrics server: %v\n", err)
				}
			}()
			fmt.Fprintf(w, "serving metrics at http://%s/metrics\n", *metricsAddr)
		}
		pc := cfg
		pc.Obs = obs.NewCollector(cfg.Procs, obs.Options{
			Spans:      *tracePath != "",
			TimeSeries: true,
			Metrics:    reg,
		})
		prof := experiments.Profile(pc, *transport, *matrix, *scale)
		if reg != nil {
			reg.Counter("mcm_solves_total", "Solves completed by this bench process.").Inc()
		}
		if *tracePath != "" {
			if err := writeArtifact(*tracePath, pc.Obs.WriteTrace); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
			prof.TraceFile = *tracePath
			fmt.Fprintf(w, "wrote %s (load in ui.perfetto.dev)\n", *tracePath)
		}
		if *seriesPath != "" {
			if err := writeArtifact(*seriesPath, pc.Obs.WriteSeriesCSV); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
			prof.SeriesFile = *seriesPath
			fmt.Fprintf(w, "wrote %s\n", *seriesPath)
		}
		fmt.Fprintf(w, "profile: %s scale=%d p=%d t=%d |M|=%d iters=%d wall=%.3fs\n",
			*matrix, *scale, prof.Procs, prof.Threads, prof.Cardinality,
			prof.Iterations, prof.WallSeconds)

		if *jsonPath != "" {
			if recProfile == nil && (*fault != "none" || *checkpointEvery > 0) {
				// Recovery instrumentation was requested but no recovery
				// experiment ran: measure it now (quietly) for the envelope.
				p := experiments.RecoveryBench(io.Discard, cfg, *matrix, *scale, recOpts)
				recProfile = &p
			}
			envelope := struct {
				Exp       string `json:"exp"`
				Scale     int    `json:"scale"`
				Transport string `json:"transport"`
				core.Config
				HostCPUs int                          `json:"host_cpus"`
				Results  map[string]any               `json:"results"`
				Profile  experiments.SolveProfile     `json:"profile"`
				Recovery *experiments.RecoveryProfile `json:"recovery,omitempty"`
			}{
				Exp:       *exp,
				Scale:     *scale,
				Transport: *transport,
				Config:    cfg,
				HostCPUs:  runtime.NumCPU(),
				Results:   results,
				Profile:   prof,
				Recovery:  recProfile,
			}
			buf, err := json.MarshalIndent(envelope, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
			buf = append(buf, '\n')
			if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(w, "wrote %s\n", *jsonPath)
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
	if !ok {
		os.Exit(2)
	}
}

// writeArtifact creates path and streams write into it.
func writeArtifact(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
