package core

// The direction/compression sweep: the solver's output is a function of the
// instance and seed alone, never of the SpMV direction, the wire codec, the
// thread count, or the backend. Under the MinParent semiring the pull kernel
// is bit-identical to push (ascending row-major adjacency makes first-hit ==
// min parent — docs/KERNELS.md), compression is a pure transport encoding,
// and threads only partition work. So every cell of
// {push,pull,auto} x {compress off,on} x {inproc,tcp} x threads 1..4
// must reproduce the static-push oracle's mate vectors exactly.

import (
	"fmt"
	"testing"

	"mcmdist/internal/mpi"
	"mcmdist/internal/mpi/tcpnet"
	"mcmdist/internal/obs"
	"mcmdist/internal/rmat"
	"mcmdist/internal/spmat"
	"mcmdist/internal/verify"
)

func TestDirectionCompressionSweepBitIdentical(t *testing.T) {
	a := rmat.MustGenerate(rmat.G500, 7, 4, 21)
	base := Config{Procs: 4, Init: InitKarpSipser, Permute: true, Seed: 3}

	oracleCfg := base
	oracleCfg.Direction = DirectionPush
	oracle, err := Solve(a, oracleCfg)
	if err != nil {
		t.Fatalf("oracle solve: %v", err)
	}
	if err := verify.Maximum(a, oracle.Matching); err != nil {
		t.Fatalf("oracle not maximum: %v", err)
	}
	wantR := fmt.Sprint(oracle.Matching.MateR)
	wantC := fmt.Sprint(oracle.Matching.MateC)

	for _, dir := range []Direction{DirectionPush, DirectionPull, DirectionAuto} {
		for _, compress := range []bool{false, true} {
			for threads := 1; threads <= 4; threads++ {
				for _, backend := range []string{"inproc", "tcp"} {
					name := fmt.Sprintf("%s/compress=%v/t=%d/%s", dir, compress, threads, backend)
					t.Run(name, func(t *testing.T) {
						cfg := base
						cfg.Direction = dir
						cfg.Compress = compress
						cfg.Threads = threads

						var results []*Result
						if backend == "inproc" {
							res, err := Solve(a, cfg)
							if err != nil {
								t.Fatalf("solve: %v", err)
							}
							results = []*Result{res}
						} else {
							eps, err := tcpnet.Loopback(cfg.Procs)
							if err != nil {
								t.Fatalf("building tcp endpoints: %v", err)
							}
							results, err = solveEndpoints(eps, a, cfg)
							if cerr := mpi.CloseAll(eps); cerr != nil {
								t.Errorf("closing endpoints: %v", cerr)
							}
							if err != nil {
								t.Fatalf("tcp solve: %v", err)
							}
						}
						for i, res := range results {
							if got := fmt.Sprint(res.Matching.MateR); got != wantR {
								t.Errorf("endpoint %d MateR diverges from push oracle:\n  oracle: %s\n  got:    %s", i, wantR, got)
							}
							if got := fmt.Sprint(res.Matching.MateC); got != wantC {
								t.Errorf("endpoint %d MateC diverges from push oracle", i)
							}
							if res.Stats.Cardinality != oracle.Stats.Cardinality {
								t.Errorf("endpoint %d cardinality %d, oracle %d", i, res.Stats.Cardinality, oracle.Stats.Cardinality)
							}
							// WordsEnc is the one meter column allowed to
							// move with compression; it must track it.
							for r, m := range res.PerRank {
								if compress && m.Words > 0 && m.WordsEnc <= 0 {
									t.Errorf("endpoint %d rank %d: compression on but WordsEnc=%d", i, r, m.WordsEnc)
								}
								if !compress && m.WordsEnc != 0 {
									t.Errorf("endpoint %d rank %d: compression off but WordsEnc=%d", i, r, m.WordsEnc)
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestAutoLevelReductionCount pins what the adaptive direction costs in
// reductions: on top of the same solve pinned to push, an auto solve issues
// exactly one allreduce for the threshold and one per pull level for the
// scan feedback. The level's discovered-row count and its new-path count
// come from one fused reduction, which stands in for the push level's one
// path count, so levels add nothing. Counted from each rank's allreduce
// collective spans.
func TestAutoLevelReductionCount(t *testing.T) {
	const procs = 4
	graphs := []struct {
		name string
		a    *spmat.CSC
	}{
		{"g500-6", rmat.MustGenerate(rmat.G500, 6, 4, 21)},
		{"er-6", rmat.MustGenerate(rmat.ER, 6, 4, 9)},
		{"g500-7", rmat.MustGenerate(rmat.G500, 7, 4, 21)},
	}
	allreduces := func(col *obs.Collector, r int) int {
		n := 0
		for _, sp := range col.Tracer(r).Spans() {
			if sp.Kind == obs.KindCollective && sp.Name == "allreduce" {
				n++
			}
		}
		return n
	}
	pulled := false
	for _, g := range graphs {
		for _, engine := range []string{EngineBFS, EngineBFSSingleSource} {
			for _, init := range []Init{InitNone, InitDynMinDegree} {
				t.Run(fmt.Sprintf("%s/%s/%s", g.name, engine, init), func(t *testing.T) {
					cols := map[Direction]*obs.Collector{}
					stats := map[Direction]*Stats{}
					for _, dir := range []Direction{DirectionPush, DirectionAuto} {
						col := obs.NewCollector(procs, obs.Options{Spans: true})
						res := mustSolve(t, g.a, Config{Procs: procs, Init: init, Engine: engine, Direction: dir, Obs: col})
						cols[dir], stats[dir] = col, res.Stats
					}
					pulls := stats[DirectionAuto].PullIterations
					if stats[DirectionAuto].Iterations != stats[DirectionPush].Iterations {
						t.Fatalf("auto ran %d iterations, push %d", stats[DirectionAuto].Iterations, stats[DirectionPush].Iterations)
					}
					pulled = pulled || pulls > 0
					for r := 0; r < procs; r++ {
						push, auto := allreduces(cols[DirectionPush], r), allreduces(cols[DirectionAuto], r)
						if auto-push != 1+pulls {
							t.Errorf("rank %d: auto issued %d allreduces, push %d: %d more, want 1 + %d pull levels",
								r, auto, push, auto-push, pulls)
						}
					}
				})
			}
		}
	}
	if !pulled {
		t.Fatal("no auto solve took a pull level; the scan feedback went untested")
	}
}
