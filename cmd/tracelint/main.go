// Command tracelint validates the observability artifacts cmd/mcm emits:
// Chrome trace_event JSON files, per-iteration time-series CSVs, and crash
// flight-recorder dumps.
//
// For traces it checks the JSON object form with a traceEvents array,
// per-event required keys by phase type, pairing AND file ordering of flow
// start/step/finish chains, per-track timestamp monotonicity of the
// complete events (the property the clock-offset alignment of merged
// multi-process traces must preserve), and — when otherData carries the
// world size — exactly one compute/comm track pair per world rank. A trace
// that passes loads in Perfetto (ui.perfetto.dev) and chrome://tracing.
//
// For CSVs (dispatched on the .csv extension) it checks the exact header
// obs.WriteSeriesCSV writes, row arity, numeric fields, the direction
// column's push/pull vocabulary and its agreement with pull, and the
// iteration structure: every rank, the merged rank -1 included, numbers
// consecutive iterations over the same first and last one, and agrees with
// the merged row on the SPMD-replicated phase, frontier, new_paths, matched
// and pull columns.
//
// For flight dumps (dispatched on the .dump extension) it decodes the
// MCMFDR2 payload and prints the generation, the cause, and each rank's
// last span — the post-mortem view `make chaos-smoke` asserts on.
//
// It is the CI gate behind the trace-smoke, bench-smoke, transport-smoke
// and chaos-smoke steps.
//
// Usage:
//
//	tracelint trace.json [series.csv ...] [flight.dump ...]
//
// Exits nonzero, printing one line per problem, if any file fails.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mcmdist/internal/obs"
)

// event mirrors the trace_event fields tracelint checks. Unknown fields are
// ignored; absent optional numbers are distinguished via pointers.
type event struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	Pid  *int            `json:"pid"`
	Tid  *int            `json:"tid"`
	Ts   *float64        `json:"ts"`
	Dur  *float64        `json:"dur"`
	Cat  string          `json:"cat"`
	ID   string          `json:"id"`
	S    string          `json:"s"`
	Bp   string          `json:"bp"`
	Args json.RawMessage `json:"args"`
}

// traceFile is the object form of the format: the only form Perfetto's
// legacy JSON importer fully supports metadata on.
type traceFile struct {
	TraceEvents     []event         `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
	OtherData       json.RawMessage `json:"otherData"`
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: tracelint trace.json [more.json ...]")
		os.Exit(2)
	}
	bad := false
	for _, path := range os.Args[1:] {
		check := lint
		switch {
		case strings.HasSuffix(path, ".csv"):
			check = lintCSV
		case strings.HasSuffix(path, ".dump"):
			check = lintDump
		}
		if n := check(path); n > 0 {
			fmt.Fprintf(os.Stderr, "tracelint: %s: %d problem(s)\n", path, n)
			bad = true
		} else {
			fmt.Printf("tracelint: %s: ok\n", path)
		}
	}
	if bad {
		os.Exit(1)
	}
}

// lint checks one file and returns the number of problems found, printing
// each to stderr.
func lint(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracelint: %v\n", err)
		return 1
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		fmt.Fprintf(os.Stderr, "tracelint: %s: not valid JSON: %v\n", path, err)
		return 1
	}
	problems := 0
	bad := func(i int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "tracelint: %s: event %d: %s\n", path, i, fmt.Sprintf(format, args...))
		problems++
	}
	if len(tf.TraceEvents) == 0 {
		fmt.Fprintf(os.Stderr, "tracelint: %s: empty traceEvents array\n", path)
		return problems + 1
	}

	// flows[id] tracks the state machine of one flow chain: started ("s"),
	// continued ("t"), finished ("f"). File order inside a chain must be
	// s, t*, f with non-decreasing timestamps.
	type flowState struct {
		starts, steps, finishes int
		lastTs                  float64
	}
	flows := make(map[string]*flowState)

	// lastX[tid] is the previous complete event's timestamp on that track:
	// the writer sorts each track by start, and the clock-offset alignment
	// of merged multi-process traces must keep it that way, so a complete
	// event older than its predecessor is a lint failure, not a style nit.
	lastX := make(map[int]float64)
	// threadNames[tid] collects the thread_name metadata for the
	// one-track-pair-per-rank check.
	threadNames := make(map[int][]string)

	for i, ev := range tf.TraceEvents {
		if ev.Ph == "" {
			bad(i, "missing ph")
			continue
		}
		if ev.Name == "" {
			bad(i, "ph %q missing name", ev.Ph)
		}
		if ev.Pid == nil {
			bad(i, "%q missing pid", ev.Name)
		}
		if ev.Tid == nil && ev.Ph != "M" {
			bad(i, "%q missing tid", ev.Name)
		}
		if ev.Ts == nil && ev.Ph != "M" {
			bad(i, "%q (ph %q) missing ts", ev.Name, ev.Ph)
		}
		switch ev.Ph {
		case "X":
			if ev.Dur == nil {
				bad(i, "complete event %q missing dur", ev.Name)
			} else if *ev.Dur < 0 {
				bad(i, "complete event %q has negative dur %g", ev.Name, *ev.Dur)
			}
			if ev.Ts != nil && ev.Tid != nil {
				if prev, ok := lastX[*ev.Tid]; ok && *ev.Ts < prev {
					bad(i, "complete event %q on tid %d goes back in time (ts %.3f after %.3f)",
						ev.Name, *ev.Tid, *ev.Ts, prev)
				} else {
					lastX[*ev.Tid] = *ev.Ts
				}
			}
		case "i", "I":
			if ev.S != "" && ev.S != "t" && ev.S != "p" && ev.S != "g" {
				bad(i, "instant %q has bad scope %q", ev.Name, ev.S)
			}
		case "s", "t", "f":
			if ev.ID == "" {
				bad(i, "flow event %q missing id", ev.Name)
				continue
			}
			st := flows[ev.ID]
			if st == nil {
				st = &flowState{}
				flows[ev.ID] = st
			}
			if ev.Ts != nil {
				if total := st.starts + st.steps + st.finishes; total > 0 && *ev.Ts < st.lastTs {
					bad(i, "flow %s event %q goes back in time (ts %.3f after %.3f)",
						ev.ID, ev.Ph, *ev.Ts, st.lastTs)
				}
				st.lastTs = *ev.Ts
			}
			switch ev.Ph {
			case "s":
				if st.steps > 0 || st.finishes > 0 {
					bad(i, "flow %s start after a step or finish", ev.ID)
				}
				st.starts++
			case "t":
				if st.starts == 0 {
					bad(i, "flow %s step before its start", ev.ID)
				}
				if st.finishes > 0 {
					bad(i, "flow %s step after its finish", ev.ID)
				}
				st.steps++
			case "f":
				if st.starts == 0 {
					bad(i, "flow %s finish before its start", ev.ID)
				}
				if ev.Bp != "e" {
					bad(i, "flow %s finish missing binding point bp=e", ev.ID)
				}
				st.finishes++
			}
		case "M":
			if ev.Name == "thread_name" && ev.Tid != nil {
				var args struct {
					Name string `json:"name"`
				}
				json.Unmarshal(ev.Args, &args)
				threadNames[*ev.Tid] = append(threadNames[*ev.Tid], args.Name)
			}
		case "B", "E", "b", "e", "n", "C":
			// Legal phases this writer does not emit; nothing more to check.
		default:
			bad(i, "%q has unknown ph %q", ev.Name, ev.Ph)
		}
	}
	for id, st := range flows {
		if st.starts != 1 {
			fmt.Fprintf(os.Stderr, "tracelint: %s: flow %s has %d start events, want 1\n", path, id, st.starts)
			problems++
		}
		if st.finishes != 1 {
			fmt.Fprintf(os.Stderr, "tracelint: %s: flow %s has %d finish events, want 1\n", path, id, st.finishes)
			problems++
		}
	}
	problems += lintTracks(path, tf.OtherData, threadNames)
	return problems
}

// lintTracks checks the world-rank track layout when the trace declares its
// world size in otherData: exactly one compute/comm thread_name pair per
// rank — "rank r" on tid 2r, "rank r comm" on tid 2r+1 — plus the runtime
// track, and nothing else. A merged multi-process trace that installed a
// peer twice (or not at all) fails here.
func lintTracks(path string, otherData json.RawMessage, threadNames map[int][]string) int {
	var od struct {
		Ranks *int `json:"ranks"`
	}
	if len(otherData) == 0 || json.Unmarshal(otherData, &od) != nil || od.Ranks == nil {
		return 0 // a foreign trace without the world-size declaration
	}
	problems := 0
	bad := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "tracelint: %s: %s\n", path, fmt.Sprintf(format, args...))
		problems++
	}
	ranks := *od.Ranks
	if ranks <= 0 {
		bad("otherData declares %d ranks", ranks)
		return problems
	}
	for r := 0; r < ranks; r++ {
		for half, want := range [2]string{fmt.Sprintf("rank %d", r), fmt.Sprintf("rank %d comm", r)} {
			tid := 2*r + half
			switch names := threadNames[tid]; {
			case len(names) == 0:
				bad("rank %d: no thread_name for tid %d (want %q)", r, tid, want)
			case len(names) > 1:
				bad("rank %d: %d thread_name events for tid %d, want exactly 1", r, len(names), tid)
			case names[0] != want:
				bad("rank %d: tid %d named %q, want %q", r, tid, names[0], want)
			}
		}
	}
	if names := threadNames[2*ranks]; len(names) != 1 || names[0] != "runtime" {
		bad("runtime track (tid %d) missing or misnamed: %v", 2*ranks, names)
	}
	for tid := range threadNames {
		if tid < 0 || tid > 2*ranks {
			bad("unexpected track tid %d beyond the %d-rank layout", tid, ranks)
		}
	}
	return problems
}

// lintDump decodes one crash flight-recorder dump and prints the
// post-mortem view: generation, cause, and each rank's final span. The
// decode itself is the check — chaos-smoke asserts a SIGKILLed world left a
// dump this function accepts.
func lintDump(path string) int {
	d, err := obs.ReadFlightDump(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracelint: %s: %v\n", path, err)
		return 1
	}
	fmt.Printf("tracelint: %s: flight dump, generation %d, cause: %s\n", path, d.Gen, d.Cause)
	for _, ro := range d.Ranks {
		line := fmt.Sprintf("  rank %d: %d span(s)", ro.Rank, len(ro.Spans))
		if ro.Dropped > 0 {
			line += fmt.Sprintf(" (%d dropped)", ro.Dropped)
		}
		if sp, ok := d.LastSpan(ro.Rank); ok {
			line += fmt.Sprintf(", last span %q at +%v for %v", sp.Name,
				time.Duration(sp.Start), time.Duration(sp.Dur))
		}
		fmt.Println(line)
	}
	return 0
}

// seriesHeader is the exact header obs.WriteSeriesCSV emits; tracelint
// fails a CSV whose header drifts so the schema stays load-bearing.
const seriesHeader = "rank,phase,iteration,frontier,new_paths,matched,pull,direction,wall_ns,msgs,words,words_encoded,comm_ns,exposed_ns,pool_busy_ns,pool_span_ns"

// lintCSV checks one time-series CSV and returns the number of problems
// found, printing each to stderr.
func lintCSV(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracelint: %v\n", err)
		return 1
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 || lines[0] != seriesHeader {
		fmt.Fprintf(os.Stderr, "tracelint: %s: bad or missing series header\n", path)
		return 1
	}
	if len(lines) < 2 {
		fmt.Fprintf(os.Stderr, "tracelint: %s: header but no samples\n", path)
		return 1
	}
	cols := strings.Split(seriesHeader, ",")
	col := make(map[string]int, len(cols))
	for i, c := range cols {
		col[c] = i
	}
	problems := 0
	bad := func(ln int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "tracelint: %s: line %d: %s\n", path, ln+1, fmt.Sprintf(format, args...))
		problems++
	}
	// Iteration structure: every rank, the merged rank -1 included,
	// numbers consecutive iterations over one span (first[r]..last[r]),
	// and all rows of one iteration agree on the SPMD-replicated columns.
	first, last := make(map[int64]int64), make(map[int64]int64)
	var ranks []int64
	spmd, spmdLine := make(map[int64]string), make(map[int64]int)
	for ln := 1; ln < len(lines); ln++ {
		fields := strings.Split(lines[ln], ",")
		if len(fields) != len(cols) {
			bad(ln, "%d fields, want %d", len(fields), len(cols))
			continue
		}
		before := problems
		nums := make([]int64, len(fields))
		for i, f := range fields {
			if i == col["direction"] {
				if f != "push" && f != "pull" {
					bad(ln, "direction %q, want push or pull", f)
				}
				continue
			}
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				bad(ln, "column %s: %q is not an integer", cols[i], f)
			} else if i == col["pull"] && v != 0 && v != 1 {
				bad(ln, "pull %d, want 0 or 1", v)
			}
			nums[i] = v
		}
		if problems > before {
			continue
		}
		wantDir := "push"
		if nums[col["pull"]] == 1 {
			wantDir = "pull"
		}
		if fields[col["direction"]] != wantDir {
			bad(ln, "direction %q disagrees with pull %d", fields[col["direction"]], nums[col["pull"]])
		}
		rank, it := nums[col["rank"]], nums[col["iteration"]]
		if prev, seen := last[rank]; !seen {
			first[rank] = it
			ranks = append(ranks, rank)
		} else if it != prev+1 {
			bad(ln, "rank %d: iteration %d follows %d", rank, it, prev)
		}
		last[rank] = it
		key := fmt.Sprint(nums[col["phase"]], nums[col["frontier"]], nums[col["new_paths"]],
			nums[col["matched"]], nums[col["pull"]])
		if want, seen := spmd[it]; !seen {
			spmd[it], spmdLine[it] = key, ln
		} else if key != want {
			bad(ln, "rank %d iteration %d: phase/frontier/new_paths/matched/pull %s, line %d has %s",
				rank, it, key, spmdLine[it]+1, want)
		}
	}
	// Without merged rows first[-1] and last[-1] read 0, so every rank
	// fails here too.
	for _, r := range ranks {
		if first[r] != first[-1] || last[r] != last[-1] {
			fmt.Fprintf(os.Stderr, "tracelint: %s: rank %d spans iterations %d..%d, merged rows %d..%d\n",
				path, r, first[r], last[r], first[-1], last[-1])
			problems++
		}
	}
	return problems
}
