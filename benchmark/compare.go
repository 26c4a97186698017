package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the repository root, whether the
// benchmark runs from there or from its own directory.
func loadSpec() (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		data, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// loadSide reads a comma-separated list of results files, the runs of one
// commit.
func loadSide(arg string) ([]record, error) {
	var recs []record
	for _, path := range strings.Split(arg, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// compareMain compares the runs of two commits against the bounds of
// BENCHMARK.json: one row per workload and end-to-end metric, then every
// deterministic count that differs between any two runs. It returns 1 when
// a metric regressed and 2 on bad input.
func compareMain(w io.Writer, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: -compare OLD[,OLD...] NEW[,NEW...]")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	old, err := loadSide(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cur, err := loadSide(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var names []string
	for name := range old[0].Workloads {
		if _, ok := cur[0].Workloads[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	status := 0
	fmt.Fprintf(w, "%-14s %-20s %12s %12s %8s %7s %8s  %s\n",
		"workload", "metric", "old", "new", "worse%", "bound%", "spread%", "verdict")
	for _, name := range names {
		for _, m := range spec.EndToEnd {
			ov, nv := sideValues(old, name, m.Name), sideValues(cur, name, m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			spread := max(sideSpread(old, ov, name, m.Name), sideSpread(cur, nv, name, m.Name))
			v, worse := verdict(ov, nv, spread, m.Bound, m.Better == "higher")
			if v == "regressed" {
				status = 1
			}
			fmt.Fprintf(w, "%-14s %-20s %12.4f %12.4f %8.2f %7.1f %8.2f  %s\n",
				name, m.Name, percentile(ov, 500), percentile(nv, 500), 100*worse, 100*m.Bound, 100*spread, v)
		}
	}
	for _, name := range names {
		for _, c := range counts {
			var runs [][]float64
			for _, rec := range append(slices.Clone(old), cur...) {
				runs = append(runs, rec.Workloads[name].Counts[c])
			}
			for _, run := range runs[1:] {
				if !slices.Equal(run, runs[0]) {
					fmt.Fprintf(w, "count changed: %s %s: %v (first old run) vs %v\n", name, c, runs[0], run)
					break
				}
			}
		}
	}
	return status
}

func sideValues(recs []record, workload, metric string) []float64 {
	var vs []float64
	for _, rec := range recs {
		if mv, ok := rec.Workloads[workload].EndToEnd[metric]; ok {
			vs = append(vs, mv.Value)
		}
	}
	return vs
}

// sideSpread is one side's noise as a share of its median: the range of
// its runs, or for a single run the range of that run's rounds, which also
// holds the differences between the rounds' graph variants and so errs wide.
func sideSpread(recs []record, vs []float64, workload, metric string) float64 {
	if len(vs) == 1 {
		vs = recs[0].Workloads[workload].Rounds[metric]
	}
	if len(vs) == 0 {
		return 0
	}
	return ratio(slices.Max(vs)-slices.Min(vs), percentile(vs, 500))
}

// verdict judges new runs against old ones: worse is the median's change
// in the worse direction as a share of the old median. A change beyond the
// bound regresses; a spread wider than the bound leaves the metric
// unresolved unless, over several runs each, every new run reads better
// than every old one; a gain must exceed the spread.
func verdict(old, cur []float64, spread, bound float64, higherBetter bool) (string, float64) {
	worse := ratio(percentile(cur, 500)-percentile(old, 500), percentile(old, 500))
	bestOld, worstCur := slices.Min(old), slices.Max(cur)
	if higherBetter {
		worse = -worse
		bestOld, worstCur = slices.Max(old), slices.Min(cur)
	}
	allBetter := len(old) > 1 && len(cur) > 1 &&
		((!higherBetter && worstCur < bestOld) || (higherBetter && worstCur > bestOld))
	switch {
	case spread > bound && allBetter:
		return "better", worse
	case spread > bound:
		return "unresolved", worse
	case worse > bound:
		return "regressed", worse
	case -worse > spread:
		return "better", worse
	default:
		return "no worse", worse
	}
}
