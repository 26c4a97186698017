package mcmdist

// One benchmark per table and figure of the paper's evaluation section,
// driving the same experiment code as cmd/bench at reduced scale, plus
// micro-benchmarks for the Table I primitives. Run them all with
//
//	go test -bench=. -benchmem
//
// Shapes (who wins, how results scale) are what reproduce the paper;
// cmd/bench prints the full tables and EXPERIMENTS.md records the
// comparison.

import (
	"io"
	"sync"
	"testing"

	"mcmdist/internal/core"
	"mcmdist/internal/experiments"
)

// BenchmarkTableIPrimitives exercises the primitive set of Table I through
// one full distributed solve per iteration (SpMV, SELECT, SET, INVERT,
// PRUNE are all on the hot path of Algorithm 2).
func BenchmarkTableIPrimitives(b *testing.B) {
	g, err := RMAT(ER, 10, 8, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MaximumMatching(g, Options{Procs: 4, Init: GreedyInit}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Suite regenerates the Table II inventory.
// benchConfig is cmd/bench's threading (12 per rank) on a 2x2 grid.
var benchConfig = core.Config{Procs: 4, Threads: 12}

func BenchmarkTable2Suite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table2(io.Discard, 8)
	}
}

// BenchmarkFig3Initializers runs the initializer comparison (greedy vs
// Karp-Sipser vs dynamic mindegree) on the figure's representative graphs.
func BenchmarkFig3Initializers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig3(io.Discard, benchConfig, 7)
	}
}

// BenchmarkFig4StrongScaling runs the real-matrix strong-scaling sweep.
func BenchmarkFig4StrongScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig4(io.Discard, benchConfig, 10, []int{4, 16}, []string{"road_usa", "amazon-2008"})
	}
}

// BenchmarkFig5Breakdown runs the per-primitive runtime decomposition.
func BenchmarkFig5Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig5(io.Discard, benchConfig, 9, []int{4, 16})
	}
}

// BenchmarkFig6SyntheticScaling runs the ER/G500/SSCA scaling sweep.
func BenchmarkFig6SyntheticScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6(io.Discard, benchConfig, []int{10}, []int{4, 16})
	}
}

// BenchmarkFig7HybridVsFlat runs the multithreading comparison.
func BenchmarkFig7HybridVsFlat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig7(io.Discard, benchConfig, 10, []int{48})
	}
}

// BenchmarkFig8PruneAblation runs the pruning on/off ablation.
func BenchmarkFig8PruneAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig8(io.Discard, benchConfig, 8, []string{"road_usa", "kkt_power"})
	}
}

// BenchmarkFig9GatherScatter runs the gather-to-one-node cost experiment.
func BenchmarkFig9GatherScatter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig9(io.Discard, []int{1 << 18, 1 << 20}, 2048, 4)
	}
}

// BenchmarkAugmentVariants runs the Section IV-B level- vs path-parallel
// crossover sweep.
func BenchmarkAugmentVariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AugmentCrossover(io.Discard, benchConfig, 8, []int{1, 16})
	}
}

// BenchmarkSerialBaselines measures the shared-memory algorithms the paper
// compares against (Section VI-E).
func BenchmarkSerialBaselines(b *testing.B) {
	g, err := RMAT(G500, 13, 8, 5)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		alg  SerialAlgorithm
	}{
		{"hopcroft-karp", HopcroftKarp},
		{"pothen-fan", PothenFan},
		{"ms-bfs", MSBFS},
		{"ms-bfs-graft", MSBFSGraft},
		{"push-relabel", PushRelabelAlg},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := MaximumMatchingSerial(g, tc.alg, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMCMDistByProcs measures wall time of the full distributed solve
// at several simulated grid sizes (in-process; communication is metered,
// wall time includes simulation overhead).
func BenchmarkMCMDistByProcs(b *testing.B) {
	g, err := RMAT(G500, 12, 8, 5)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, 4, 16} {
		b.Run("p="+itoa(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := MaximumMatching(g, Options{Procs: p, Init: DynamicMindegreeInit}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableIChain drives the full Table I primitive chain (SpMV,
// SELECT, INVERT, SET, PRUNE per BFS iteration) through end-to-end MCM-DIST
// solves on the RMAT scale-16 workload, flat (t=1) against hybrid (t=4).
// The worker pools are real, so on a host with >= 4 cores the hybrid run
// shows measured wall-time speedup; on smaller hosts the sub-benchmarks
// still verify the threaded path end to end. The matchings are bit-identical
// across thread counts (asserted by TestHybridMeasuredSpeedup and the core
// oracle sweep).
func BenchmarkTableIChain(b *testing.B) {
	g, err := RMAT(G500, 16, 8, 5)
	if err != nil {
		b.Fatal(err)
	}
	dg, err := Distribute(g, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer dg.Close()
	for _, threads := range []int{1, 4} {
		b.Run("t="+itoa(threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := dg.MaximumMatching(Options{Init: DynamicMindegreeInit, Threads: threads}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkSolveAllocs measures end-to-end allocations of one full
// MCM-DIST solve on a pre-distributed graph — the hot path a long-lived
// session pays per matching request. EXPERIMENTS.md records the
// before/after numbers for the runtime-context buffer-reuse refactor and
// for the in-place MS-BFS level (dead vectors backing the next outputs).
func BenchmarkSolveAllocs(b *testing.B) {
	g, err := RMAT(ER, 10, 8, 3)
	if err != nil {
		b.Fatal(err)
	}
	dg, err := Distribute(g, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dg.MaximumMatching(Options{Init: GreedyInit}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveTraceOverhead measures the cost of the observability plane
// (ISSUE 5) on a full distributed solve: "off" is the baseline with no
// Observe config and must stay within noise of the seed solve; "spans" adds
// per-rank span tracing; "full" adds the iteration time-series and metrics
// registry on top. EXPERIMENTS.md records the enabled overhead (<5%
// target).
func BenchmarkSolveTraceOverhead(b *testing.B) {
	g, err := RMAT(G500, 12, 8, 5)
	if err != nil {
		b.Fatal(err)
	}
	dg, err := Distribute(g, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer dg.Close()
	for _, tc := range []struct {
		name string
		obs  *Observe
	}{
		{"off", nil},
		{"spans", &Observe{Spans: true}},
		{"full", &Observe{Spans: true, TimeSeries: true, Metrics: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := dg.MaximumMatching(Options{Init: GreedyInit, Observe: tc.obs}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveObsCollection measures the cost of whole-world observation
// collection on the tcp backend: a 4-endpoint loopback world runs one full
// solve per iteration, once untraced and once with every observability
// plane on — spans, time-series, metrics, plus the solve-end shipping and
// the coordinator-side merge that the single-process benchmark above never
// pays. EXPERIMENTS.md records the collected overhead (<5% target; the
// disabled plane must stay within noise of "off").
func BenchmarkSolveObsCollection(b *testing.B) {
	g, err := RMAT(G500, 12, 8, 5)
	if err != nil {
		b.Fatal(err)
	}
	const procs = 4
	for _, tc := range []struct {
		name string
		obs  *Observe
	}{
		{"off", nil},
		{"collected", &Observe{Spans: true, TimeSeries: true, Metrics: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			opts := Options{Procs: procs, Init: GreedyInit, Observe: tc.obs}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solveLoopback(b, g, opts)
			}
		})
	}
}

// solveLoopback runs one solve across a fresh opts.Procs-endpoint loopback
// TCP world, one goroutine per endpoint. An endpoint binds one world and one
// solve; bootstrap and teardown happen off the clock (and off the
// allocation count), so what is measured is the solve itself.
func solveLoopback(b *testing.B, g *Graph, opts Options) {
	b.StopTimer()
	trs, err := LoopbackTCP(opts.Procs)
	if err != nil {
		b.Fatal(err)
	}
	b.StartTimer()
	var wg sync.WaitGroup
	errs := make([]error, opts.Procs)
	for r := 1; r < opts.Procs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, _, errs[r] = MaximumMatchingOn(trs[r], g, opts)
		}(r)
	}
	_, _, errs[0] = MaximumMatchingOn(trs[0], g, opts)
	wg.Wait()
	b.StopTimer()
	// Close concurrently: BYE drains are mutual, so sequential closes would
	// each wait out the full close timeout.
	var cwg sync.WaitGroup
	for _, tr := range trs {
		cwg.Add(1)
		go func(tr *Transport) {
			defer cwg.Done()
			tr.Close()
		}(tr)
	}
	cwg.Wait()
	for _, e := range errs {
		if e != nil {
			b.Fatal(e)
		}
	}
	b.StartTimer()
}

// BenchmarkSolveOnAllocs measures the allocations of one multi-process
// solve: a 4-endpoint loopback TCP world on RMAT G500 scale 12, every
// endpoint permuting the matrix and building the blocks of the rank it
// hosts, then solving with the cost model's engine and direction choices.
// EXPERIMENTS.md records bytes/op and allocs/op before and after the
// per-rank block builder.
func BenchmarkSolveOnAllocs(b *testing.B) {
	g, err := RMAT(G500, 12, 8, 5)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Procs: 4, Threads: 1, Engine: "auto", Direction: "auto", Compress: true, Init: DynamicMindegreeInit}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solveLoopback(b, g, opts)
	}
}

// BenchmarkDistributeAllocs measures building a 2x2 DistributedGraph (the
// blocks of A and Aᵀ for every rank) from RMAT G500 scale 12.
func BenchmarkDistributeAllocs(b *testing.B) {
	g, err := RMAT(G500, 12, 8, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Distribute(g, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaximalInitAllocs measures the distributed degree initializers
// alone — dynamic mindegree and Karp–Sipser, each round a block-local
// residual-degree count plus a greedy round — on a 2x2 DistributedGraph of
// RMAT G500 scale 14, flat (t=1) and hybrid (t=4).
func BenchmarkMaximalInitAllocs(b *testing.B) {
	g, err := RMAT(G500, 14, 8, 5)
	if err != nil {
		b.Fatal(err)
	}
	dg, err := Distribute(g, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer dg.Close()
	for _, tc := range []struct {
		name string
		init Initializer
	}{
		{"mindegree", DynamicMindegreeInit},
		{"karpsipser", KarpSipserInit},
	} {
		for _, threads := range []int{1, 4} {
			b.Run(tc.name+"/t="+itoa(threads), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := dg.MaximalMatchingDistributed(tc.init, threads); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
