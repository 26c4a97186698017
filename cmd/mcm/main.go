// Command mcm computes a maximum cardinality matching of a bipartite graph
// with the distributed MCM-DIST algorithm on simulated ranks.
//
// The input is either a Matrix Market file (-in), a synthetic R-MAT matrix
// (-rmat g500|ssca|er -scale N), or a Table II stand-in (-matrix name
// -scale N).
//
// By default every rank is a goroutine of this process (the in-process
// transport). With -transport tcp the solve spans OS processes: rank 0
// (this binary) listens on -addr, coordinates the rendezvous, and ships the
// job spec to the cmd/mcmrank workers that join. See docs/TRANSPORT.md.
//
// Observability (docs/OBSERVABILITY.md): -trace-out writes the solve's span
// timeline as Perfetto-loadable trace JSON, heartbeat RTT probes included as
// hb.rtt instants, and -timeseries one CSV row per rank per BFS iteration.
// On a tcp world both are whole-world merges: the workers ship their
// observations at solve end and the coordinator aligns and merges them.
// -flight-dir arms the crash flight recorder — a failed generation leaves
// flight-g<gen>-r<rank>.dump post-mortems there (decode with cmd/tracelint).
//
// The solver flags (-procs -threads -engine -init -semiring -augment
// -direction -compress -no-prune -no-permute -seed) are
// core.BindFlags's; every mode ships them, with the graph source, as one
// distjob.Spec.
//
// Examples:
//
//	mcm -rmat g500 -scale 14 -procs 16 -init mindegree
//	mcm -in graph.mtx -procs 4 -breakdown
//	mcm -matrix road_usa -scale 12 -procs 16 -verify
//	mcm -rmat g500 -scale 10 -procs 4 -transport tcp -addr 127.0.0.1:9301
//	mcm -rmat g500 -scale 10 -procs 4 -transport tcp -addr 127.0.0.1:9301 \
//	    -trace-out world.json -timeseries world.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"

	"mcmdist/internal/core"
	"mcmdist/internal/costmodel"
	"mcmdist/internal/distjob"
	"mcmdist/internal/gen"
	"mcmdist/internal/matching"
	"mcmdist/internal/mpi"
	"mcmdist/internal/mpi/tcpnet"
	"mcmdist/internal/obs"
	"mcmdist/internal/spmat"
	"mcmdist/internal/verify"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mcm: ")

	cfg := core.Config{Procs: 4, Threads: 12, Init: core.InitDynMinDegree, Permute: true, Seed: 1}
	core.BindFlags(flag.CommandLine, &cfg)
	in := flag.String("in", "", "Matrix Market input file")
	rmatClass := flag.String("rmat", "", "generate an R-MAT matrix: g500, ssca or er")
	matrix := flag.String("matrix", "", "generate a Table II stand-in by name (see -list)")
	list := flag.Bool("list", false, "list the Table II stand-in names and exit")
	scale := flag.Int("scale", 12, "scale of generated matrices (2^scale vertices per side)")
	serial := flag.String("serial", "", "cross-check |M| against a serial oracle and exit 1 on a disagreement: hk (Hopcroft–Karp)")
	verifyFlag := flag.Bool("verify", false, "certify the result with the König vertex-cover certificate")
	breakdown := flag.Bool("breakdown", false, "print the per-primitive runtime breakdown")
	traceOut := flag.String("trace-out", "", "write a Perfetto/Chrome trace of the solve to this file (tcp coordinator: one merged world trace, all ranks)")
	timeseries := flag.String("timeseries", "", "write the per-iteration time-series CSV to this file (tcp coordinator: rank-merged across the world)")
	flightDir := flag.String("flight-dir", "", "tcp transport: crash flight recorder directory — on a failed attempt every surviving process dumps its span-ring tail, cause and generation here")
	out := flag.String("out", "", "write the matching as 'row col' lines to this file")
	transport := flag.String("transport", "inproc", "transport backend: inproc (ranks are goroutines) or tcp (ranks are OS processes)")
	addr := flag.String("addr", "", "tcp transport: rendezvous address (rank 0 listens, workers dial)")
	recoverFlag := flag.Bool("recover", false, "tcp transport: supervise the world across failures — restart it up to -max-restarts times, resuming from the last checkpoint")
	maxRestarts := flag.Int("max-restarts", 3, "tcp transport: world restarts before giving up (with -recover)")
	ckptEvery := flag.Int("checkpoint-every", 1, "tcp transport: checkpoint every Nth phase (with -recover); 0 restarts from scratch")
	flag.Parse()

	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments %q (a bool flag takes no separate value)", flag.Args())
	}
	if *list {
		for _, sp := range gen.Suite() {
			fmt.Println(sp.Name)
		}
		return
	}

	switch *transport {
	case "inproc":
		if *addr != "" {
			log.Fatal("-addr requires -transport tcp")
		}
	case "tcp":
		if *addr == "" {
			log.Fatal("-transport tcp requires -addr")
		}
	default:
		log.Fatalf("unknown -transport %q", *transport)
	}
	if *recoverFlag && *transport != "tcp" {
		log.Fatal("-recover requires -transport tcp (in-process recovery is the library's SolveRecoverable)")
	}
	if *flightDir != "" && *transport != "tcp" {
		log.Fatal("-flight-dir requires -transport tcp (the flight recorder captures multi-process failures)")
	}

	cfg.FlightDir = *flightDir
	spec := &distjob.Spec{
		RMAT: *rmatClass, Matrix: *matrix, Scale: *scale, Config: cfg,
		ObsSpans: *traceOut != "", ObsSeries: *timeseries != "",
	}
	if err := readInput(spec, *in); err != nil {
		log.Fatal(err)
	}
	a, err := spec.BuildMatrix()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bipartite graph %d x %d, %d edges\n", a.NRows, a.NCols, a.NNZ())
	oo := obsOutputs{trace: *traceOut, series: *timeseries}

	if *recoverFlag {
		runSupervisor(*addr, spec, a, *maxRestarts, *ckptEvery, *verifyFlag, *out, oo)
		return
	}
	var tr mpi.Transport // nil: the in-process backend hosts every rank
	if *transport == "tcp" {
		blob, err := spec.Encode()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("coordinating %d-rank tcp world at %s (waiting for %d workers)\n",
			cfg.Procs, *addr, cfg.Procs-1)
		rv, err := tcpnet.Listen(*addr, tcpnet.Options{})
		if err != nil {
			log.Fatal(err)
		}
		n, err := rv.Coordinate(cfg.Procs, blob)
		if err != nil {
			log.Fatal(err)
		}
		defer n.Close()
		tr = n
	}
	res, col, err := spec.Solve(tr, a)
	if err != nil {
		log.Fatal(err)
	}
	st := res.Stats
	fmt.Printf("|M| = %d (initializer found %d), deficiency %d, engine %s\n",
		st.Cardinality, st.InitCardinality, a.NCols-st.Cardinality, st.Engine)
	fmt.Printf("phases %d, iterations %d (push %d / pull %d), augmenting paths %d (level-parallel %d, path-parallel %d)\n",
		st.Phases, st.Iterations, st.PushIterations, st.PullIterations,
		st.AugmentedPaths, st.LevelParallelAugments, st.PathParallelAugments)
	fmt.Printf("modeled time on %s with p=%d t=%d: %.3gs\n",
		costmodel.Edison.Name, res.Procs, res.Threads, costmodel.Edison.CriticalTime(res.PerRank, res.Threads))

	if *breakdown {
		ops := make([]core.Op, 0, len(st.Meter))
		for op := range st.Meter {
			ops = append(ops, op)
		}
		sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
		fmt.Println("breakdown (modeled seconds):")
		for _, op := range ops {
			fmt.Printf("  %-8s %.3g  (wall %v)\n", op, costmodel.Edison.Time(st.Meter[op], res.Threads), st.Wall[op])
		}
	}
	writeObsOutputs(col, oo)
	verifyAndWrite(a, res.Matching, *verifyFlag, *out)

	if *serial != "" {
		if *serial != "hk" {
			log.Fatalf("unknown -serial %q (want hk)", *serial)
		}
		start := time.Now()
		card := matching.HopcroftKarp(a, nil).Cardinality()
		elapsed := time.Since(start)
		if card != st.Cardinality {
			log.Fatalf("serial hk: |M| = %d in %v DISAGREES with MCM-DIST's %d", card, elapsed, st.Cardinality)
		}
		fmt.Printf("serial hk: |M| = %d in %v (agrees with MCM-DIST)\n", card, elapsed)
	}
}

// readInput embeds the -in Matrix Market file in the spec: workers may not
// share this process's filesystem, so the content travels in the job.
func readInput(spec *distjob.Spec, path string) error {
	if path == "" {
		return nil
	}
	content, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	spec.MTX = string(content)
	return nil
}

// verifyAndWrite certifies and writes the matching as the -verify and -out
// flags ask.
func verifyAndWrite(a *spmat.CSC, m *matching.Matching, verifyFlag bool, out string) {
	if verifyFlag {
		if err := verify.Maximum(a, m); err != nil {
			log.Fatalf("verification FAILED: %v", err)
		}
		fmt.Println("verified: König certificate confirms the matching is maximum")
	}
	if out != "" {
		if err := distjob.WriteMatching(out, m); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("matching written to %s\n", out)
	}
}

// runSupervisor is the coordinator side of a recoverable multi-process
// solve: it supervises the world across generations, restarting failed
// worlds from the last phase-boundary checkpoint (see internal/distjob).
func runSupervisor(addr string, spec *distjob.Spec, a *spmat.CSC, maxRestarts, ckptEvery int, verifyFlag bool, out string, oo obsOutputs) {
	spec.CheckpointEvery = ckptEvery
	rv, err := tcpnet.Listen(addr, tcpnet.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("supervising %d-rank tcp world at %s (waiting for %d workers, up to %d restarts)\n",
		spec.Procs, addr, spec.Procs-1, maxRestarts)
	res, stats, err := distjob.Supervise(rv, spec, core.RecoveryPolicy{MaxRetries: maxRestarts, Log: log.Printf})
	if stats == nil {
		stats = &core.RecoveryStats{}
	}
	reportFlightDumps(stats, spec.FlightDir)
	if err != nil {
		for _, ge := range stats.Errors {
			log.Printf("generation error: %v", ge)
		}
		log.Fatal(err)
	}
	fmt.Printf("|M| = %d after %d generation(s), %d restart(s)",
		res.Stats.Cardinality, stats.Attempts, stats.Retries)
	if stats.Retries > 0 {
		fmt.Printf(" (resumed from phase %d)", stats.ResumedPhase)
	}
	fmt.Println()
	writeObsOutputs(stats.Obs, oo)
	verifyAndWrite(a, res.Matching, verifyFlag, out)
}

// obsOutputs carries the observability artifact destinations.
type obsOutputs struct {
	trace, series string
}

// writeObsOutputs writes whichever observability artifacts were requested
// from the solve's collector: the merged Perfetto trace and the rank-merged
// time-series CSV.
func writeObsOutputs(col *obs.Collector, oo obsOutputs) {
	if col == nil {
		return
	}
	write := func(path, what string, f func(io.Writer) error) {
		if path == "" {
			return
		}
		fh, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := f(fh); err != nil {
			fh.Close()
			log.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s written to %s\n", what, path)
	}
	write(oo.trace, "trace", col.WriteTrace)
	write(oo.series, "time-series", col.WriteSeriesCSV)
}

// reportFlightDumps points the operator at the post-mortem bundle a
// supervised solve accumulated, whether or not it recovered.
func reportFlightDumps(stats *core.RecoveryStats, dir string) {
	if len(stats.FlightDumps) == 0 {
		return
	}
	fmt.Printf("flight recorder: %d dump(s) in %s\n", len(stats.FlightDumps), dir)
	for _, p := range stats.FlightDumps {
		fmt.Printf("  %s\n", p)
	}
}
