package main

// metric is one reported number. BENCHMARK.json names the same metrics with
// their bounds; the smoke test keeps the two lists in step.
type metric struct {
	name, unit string
	value      func(r *result) float64
}

// endToEnd are what a caller of the solver sees, measured untraced.
var endToEnd = []metric{
	{"solve_p50_ms", "ms", func(r *result) float64 { return percentile(r.solve["latency_ms"], 500) }},
	{"solve_p90_ms", "ms", func(r *result) float64 { return percentile(r.solve["latency_ms"], 900) }},
	{"solves_per_s", "1/s", func(r *result) float64 {
		return ratio(float64(len(r.solve["latency_ms"])), sum(r.solve["cycle_s"]))
	}},
	{"setup_s", "s", roundMedian("setup_s")},
	{"alloc_mb_per_solve", "MB", perSolve("alloc_mb")},
}

// perLayer are single layers' numbers; names marked [T] in README.md come
// from the traced pass.
var perLayer = []metric{
	{"gen.graph_s", "s", roundMedian("gen.graph_s")},
	{"spmat.distribute_s", "s", roundMedian("spmat.distribute_s")},
	{"core.init_ms", "ms", solveMedian("core.init_ms")},
	{"core.spmv_ms", "ms", solveMedian("core.spmv_ms")},
	{"spmv.expand_ms", "ms", tracedMedian("spmv.expand_ms")},
	{"spmv.fold_ms", "ms", tracedMedian("spmv.fold_ms")},
	{"spmv.local_ms", "ms", tracedMedian("spmv.local_ms")},
	{"core.select_ms", "ms", solveMedian("core.select_ms")},
	{"core.invert_ms", "ms", solveMedian("core.invert_ms")},
	{"core.prune_ms", "ms", solveMedian("core.prune_ms")},
	{"core.augment_ms", "ms", solveMedian("core.augment_ms")},
	{"core.other_ms", "ms", solveMedian("core.other_ms")},
	{"core.unattributed_ms", "ms", solveMedian("core.unattributed_ms")},
	{"core.iterations", "count", roundMean("core.iterations")},
	{"core.phases", "count", roundMean("core.phases")},
	{"core.pull_iterations", "count", roundMean("core.pull_iterations")},
	{"core.augmented_paths", "count", roundMean("core.augmented_paths")},
	{"costmodel.modeled_ms", "ms", roundMean("costmodel.modeled_ms")},
	{"mpi.msgs", "count", roundMean("mpi.msgs")},
	{"mpi.words", "count", roundMean("mpi.words")},
	{"mpi.comm_total_ms", "ms", solveMedian("mpi.comm_total_ms")},
	{"mpi.comm_exposed_ms", "ms", solveMedian("mpi.comm_exposed_ms")},
	{"mpi.allgatherv_ms", "ms", tracedMedian("mpi.allgatherv_ms")},
	{"mpi.alltoallv_ms", "ms", tracedMedian("mpi.alltoallv_ms")},
	{"mpi.allreduce_ms", "ms", tracedMedian("mpi.allreduce_ms")},
	{"mpi.rma_ms", "ms", tracedMedian("mpi.rma_ms")},
	{"mpi.collectives", "count", tracedMedian("mpi.collectives")},
	{"dvec.gather_ms", "ms", tracedMedian("dvec.gather_ms")},
	{"mpi.alpha_us", "us", func(r *result) float64 { return r.alphaUs }},
	{"mpi.beta_ns_per_word", "ns/word", func(r *result) float64 { return r.betaNs }},
	{"tcpnet.alpha_us", "us", func(r *result) float64 { return r.tcpAlphaUs }},
	{"tcpnet.beta_ns_per_word", "ns/word", func(r *result) float64 { return r.tcpBetaNs }},
	{"tcpnet.bootstrap_ms", "ms", solveMedian("tcpnet.bootstrap_ms")},
	{"tcpnet.close_ms", "ms", solveMedian("tcpnet.close_ms")},
	{"tcpnet.gap_ms", "ms", overBaseline(tcp)},
	{"core.checkpoint_ms", "ms", solveMedian("core.checkpoint_ms")},
	{"core.checkpoint_bytes", "bytes", roundMean("core.checkpoint_bytes")},
	{"core.resumed_phase", "count", roundMean("core.resumed_phase")},
	{"core.replay_ms", "ms", overBaseline(recoverable)},
	{"runtime.mallocs_per_solve", "count", perSolve("mallocs")},
	{"runtime.gc_per_solve", "count", perSolve("gc")},
	{"obs.trace_overhead_pct", "%", roundMedian("obs.trace_overhead_pct")},
	{"obs.unattributed_pct", "%", tracedMedian("obs.unattributed_pct")},
	{"obs.dropped_spans", "count", func(r *result) float64 { return percentile(r.traced["obs.dropped_spans"], 1000) }},
}

// counts are the per-round numbers that repeat exactly for a seed; -compare
// flags any change in them.
var counts = []string{
	"cardinality", "costmodel.modeled_ms", "core.iterations", "core.phases", "core.pull_iterations",
	"core.augmented_paths", "mpi.msgs", "mpi.words", "core.checkpoint_bytes", "core.resumed_phase",
}

func solveMedian(name string) func(*result) float64 {
	return func(r *result) float64 { return percentile(r.solve[name], 500) }
}

func tracedMedian(name string) func(*result) float64 {
	return func(r *result) float64 { return percentile(r.traced[name], 500) }
}

func roundMedian(name string) func(*result) float64 {
	return func(r *result) float64 { return percentile(r.round[name], 500) }
}

// roundMean averages a deterministic per-round value over the run's graph
// variants.
func roundMean(name string) func(*result) float64 {
	return func(r *result) float64 { return mean(r.round[name]) }
}

// perSolve divides a per-round total by the run's timed solves.
func perSolve(name string) func(*result) float64 {
	return func(r *result) float64 { return ratio(sum(r.round[name]), sum(r.round["solves"])) }
}

// overBaseline is the workload's p50 minus the p50 of the plain in-process
// solve on the same graphs, for workloads of kind k.
func overBaseline(k kind) func(*result) float64 {
	return func(r *result) float64 {
		if r.w.kind != k || len(r.solve["baseline_ms"]) == 0 {
			return 0
		}
		return percentile(r.solve["latency_ms"], 500) - percentile(r.solve["baseline_ms"], 500)
	}
}
