// Command benchmark is the repository's benchmark: closed-loop maximum
// matching solves through the public mcmdist API on four workloads, with
// end-to-end metrics from untraced solves and per-layer metrics from the
// solver's own Stats and from a separate traced pass. See README.md.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh [-workload all|NAME] [-seed N] [-seconds S] [-trace 0|1] [-out results.json]
//	bash benchmark/run.sh -compare old.json[,old2.json...] new.json[,new2.json...]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the readable report goes to
// standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

const (
	rounds = 10
	// minSolvesPerRound keeps at least 100 timed solves per workload, so
	// p90 has ten samples beyond it.
	minSolvesPerRound = 10
)

func main() {
	only := flag.String("workload", "all", "workload to run, or all to interleave every workload")
	seed := flag.Int64("seed", 17, "seed from which every graph variant is derived")
	seconds := flag.Float64("seconds", 15, "closed-loop solve seconds per workload, across all rounds")
	trace := flag.Int("trace", 1, "1 adds the traced pass and reports per-layer metrics; 0 reports end-to-end metrics only")
	out := flag.String("out", "", "write the full results JSON to this file")
	compare := flag.Bool("compare", false, "compare two sides of results files: -compare OLD[,OLD...] NEW[,NEW...]")
	flag.Parse()
	if *compare {
		os.Exit(compareMain(os.Stdout, flag.Args()))
	}
	if (*trace != 0 && *trace != 1) || *seconds < 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	var ws []*workload
	if *only == "all" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else {
		w, err := findWorkload(*only)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		ws = []*workload{w}
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "warning: GOMAXPROCS %d exceeds the %d CPUs\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}

	cfg := config{seconds: *seconds, rounds: rounds, minSolves: minSolvesPerRound, trace: *trace == 1}
	rs, err := runBenchmark(cfg, ws, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rec := makeRecord(cfg, *seed, rs)
	printReport(os.Stderr, rec, rs)
	if *out != "" {
		if err := writeRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(summarize(rs, cfg.trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the result line: end-to-end metrics, or per-layer ones for a
// traced run. With several workloads each name is prefixed by the
// workload's.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func summarize(rs []*result, traced bool) summary {
	s := summary{Metrics: map[string]metricValue{}}
	ms := endToEnd
	if traced {
		ms = perLayer
	}
	for _, r := range rs {
		s.Attempted += r.attempted
		s.Failed += r.failed
		prefix := ""
		if len(rs) > 1 {
			prefix = r.w.name + "."
		}
		for _, m := range ms {
			s.Metrics[prefix+m.name] = metricValue{m.value(r), m.unit}
		}
	}
	s.Correct = s.Failed == 0 && s.Attempted > 0
	return s
}

// record is the full results file that -out writes and -compare reads.
type record struct {
	Host      hostStamp                 `json:"host"`
	Workloads map[string]workloadRecord `json:"workloads"`
}

type hostStamp struct {
	GitRev     string         `json:"git_rev"`
	GoVersion  string         `json:"go_version"`
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Rounds     int            `json:"rounds"`
	Solves     map[string]int `json:"solves"`
}

type workloadRecord struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Engine is the engine that ran; with "auto" it shows the cost model's
	// choice. PushIterations and PullIterations are the direction split.
	Engine         string  `json:"engine"`
	PushIterations float64 `json:"push_iterations"`
	PullIterations float64 `json:"pull_iterations"`
	// TailPerMille is the highest percentile with ten samples beyond it.
	TailPerMille int                    `json:"tail_per_mille"`
	EndToEnd     map[string]metricValue `json:"end_to_end"`
	PerLayer     map[string]metricValue `json:"per_layer,omitempty"`
	// Rounds holds each end-to-end metric per round, Counts each
	// deterministic count per round.
	Rounds map[string][]float64 `json:"rounds"`
	Counts map[string][]float64 `json:"counts"`
}

func makeRecord(cfg config, seed int64, rs []*result) record {
	rec := record{
		Host: hostStamp{
			GitRev:     gitRev(),
			GoVersion:  runtime.Version(),
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Seed:       seed,
			Seconds:    cfg.seconds,
			Rounds:     cfg.rounds,
			Solves:     map[string]int{},
		},
		Workloads: map[string]workloadRecord{},
	}
	for _, r := range rs {
		n := len(r.solve["latency_ms"])
		rec.Host.Solves[r.w.name] = n
		iters, pull := mean(r.round["core.iterations"]), mean(r.round["core.pull_iterations"])
		wr := workloadRecord{
			Attempted:      r.attempted,
			Failed:         r.failed,
			Errors:         r.errs,
			Engine:         r.engine,
			PushIterations: iters - pull,
			PullIterations: pull,
			TailPerMille:   tailPercentile(n),
			EndToEnd:       map[string]metricValue{},
			Rounds:         map[string][]float64{},
			Counts:         map[string][]float64{},
		}
		for _, m := range endToEnd {
			wr.EndToEnd[m.name] = metricValue{m.value(r), m.unit}
			wr.Rounds[m.name] = r.round[m.name]
		}
		if cfg.trace {
			wr.PerLayer = map[string]metricValue{}
			for _, m := range perLayer {
				wr.PerLayer[m.name] = metricValue{m.value(r), m.unit}
			}
		}
		for _, c := range counts {
			if v := r.round[c]; len(v) > 0 {
				wr.Counts[c] = v
			}
		}
		rec.Workloads[r.w.name] = wr
	}
	return rec
}

func printReport(w io.Writer, rec record, rs []*result) {
	h := rec.Host
	fmt.Fprintf(w, "mcmdist benchmark  rev %s  %s  %d CPUs  GOMAXPROCS %d  seed %d  %.0fs x %d rounds per workload\n",
		h.GitRev, h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.Seed, h.Seconds, h.Rounds)
	for _, r := range rs {
		wr := rec.Workloads[r.w.name]
		fmt.Fprintf(w, "\n%s  engine %s  push/pull iterations %.1f/%.1f  solves %d  attempted %d  failed %d\n",
			r.w.name, wr.Engine, wr.PushIterations, wr.PullIterations, h.Solves[r.w.name], wr.Attempted, wr.Failed)
		if wr.TailPerMille < 900 {
			fmt.Fprintf(w, "  note: %d solves leave fewer than ten beyond p90\n", h.Solves[r.w.name])
		}
		for _, e := range wr.Errors {
			fmt.Fprintf(w, "  FAILED: %s\n", e)
		}
		for _, m := range endToEnd {
			fmt.Fprintf(w, "  %-26s %14.4f %s\n", m.name, wr.EndToEnd[m.name].Value, m.unit)
		}
		for _, m := range perLayer {
			if v, ok := wr.PerLayer[m.name]; ok {
				fmt.Fprintf(w, "  %-26s %14.4f %s\n", m.name, v.Value, m.unit)
			}
		}
	}
}

func writeRecord(path string, rec record) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gitRev reads the checked-out revision from .git in the working directory,
// without running git; it is "unknown" outside a git checkout.
func gitRev() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}
