package mcmdist

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestMaximumMatchingOnLoopbackTCP drives the public transport surface end
// to end: a 4-rank TCP world over 127.0.0.1, each endpoint solving from its
// own goroutine, every result identical to the in-process run.
func TestMaximumMatchingOnLoopbackTCP(t *testing.T) {
	g, err := RMAT(G500, 7, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Procs: 4, Init: KarpSipserInit, Permute: true, Seed: 5}

	oracle, oracleStats, err := MaximumMatching(g, opts)
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}
	if err := g.VerifyMaximum(oracle); err != nil {
		t.Fatalf("oracle not maximum: %v", err)
	}

	mates, _ := solveLoopbackTCP(t, g, opts)
	for i, m := range mates {
		if want, got := fmt.Sprint(oracle.MateR), fmt.Sprint(m.MateR); want != got {
			t.Errorf("endpoint %d MateR diverges from the in-process run", i)
		}
		if want, got := oracleStats.Cardinality, m.Cardinality(); want != got {
			t.Errorf("endpoint %d cardinality %d, oracle %d", i, got, want)
		}
	}
}

// solveLoopbackTCP solves g with MaximumMatchingOn on every endpoint of an
// opts.Procs-rank loopback TCP world, each from its own goroutine, and
// returns the endpoints' results in rank order.
func solveLoopbackTCP(t *testing.T, g *Graph, opts Options) ([]*Matching, []*Stats) {
	t.Helper()
	trs, err := LoopbackTCP(opts.Procs)
	if err != nil {
		t.Fatalf("loopback bootstrap: %v", err)
	}
	mates := make([]*Matching, len(trs))
	stats := make([]*Stats, len(trs))
	errs := make([]error, len(trs))
	var wg sync.WaitGroup
	for i, tr := range trs {
		wg.Add(1)
		go func(i int, tr *Transport) {
			defer wg.Done()
			mates[i], stats[i], errs[i] = MaximumMatchingOn(tr, g, opts)
		}(i, tr)
	}
	wg.Wait()
	var cwg sync.WaitGroup
	for _, tr := range trs {
		cwg.Add(1)
		go func(tr *Transport) {
			defer cwg.Done()
			if err := tr.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}(tr)
	}
	cwg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("endpoint %d: %v", i, err)
		}
	}
	return mates, stats
}

// statCounts is the deterministic part of a Stats: the engine name, every
// count and the communication meters, without the wall times.
func statCounts(st *Stats) Stats {
	c := *st
	c.CheckpointWall, c.WallByOp, c.CommTimeByOp, c.Obs = 0, nil, nil, nil
	return c
}

// TestAutoIsBFS pins "auto" as an alias of "bfs": on the engine
// conformance graphs, in process and on loopback TCP, both spellings give
// bit-identical mates, identical counts and identical meters, and Stats
// names the engine that ran, bfs.
func TestAutoIsBFS(t *testing.T) {
	graphs := map[string]struct {
		class        RMATClass
		scale, edges int
		seed         int64
	}{
		"g500": {G500, 6, 4, 21},
		"er":   {ER, 6, 4, 9},
	}
	for name, gs := range graphs {
		g, err := RMAT(gs.class, gs.scale, gs.edges, gs.seed)
		if err != nil {
			t.Fatal(err)
		}
		for i, opts := range []Options{
			{Procs: 4, Seed: 5},
			// The repo benchmark's rmat-tcp-auto shape.
			{Procs: 4, Init: DynamicMindegreeInit, Direction: "auto", Compress: true, Permute: true, Seed: 5},
		} {
			label := fmt.Sprintf("%s/options %d", name, i)
			auto, bfs := opts, opts
			auto.Engine, bfs.Engine = "auto", "bfs"
			ma, sa, err := MaximumMatching(g, auto)
			if err != nil {
				t.Fatalf("%s: in-process auto: %v", label, err)
			}
			mb, sb, err := MaximumMatching(g, bfs)
			if err != nil {
				t.Fatalf("%s: in-process bfs: %v", label, err)
			}
			if err := g.VerifyMaximum(ma); err != nil {
				t.Fatalf("%s: auto not maximum: %v", label, err)
			}
			if sa.Engine != "bfs" {
				t.Fatalf("%s: auto ran engine %q, want bfs", label, sa.Engine)
			}
			if !reflect.DeepEqual(ma, mb) || !reflect.DeepEqual(statCounts(sa), statCounts(sb)) {
				t.Fatalf("%s: in-process auto diverges from bfs:\n  auto %+v\n  bfs  %+v", label, statCounts(sa), statCounts(sb))
			}
			autoTCP, autoStats := solveLoopbackTCP(t, g, auto)
			bfsTCP, bfsStats := solveLoopbackTCP(t, g, bfs)
			for e := range autoTCP {
				if !reflect.DeepEqual(autoTCP[e], ma) || !reflect.DeepEqual(bfsTCP[e], ma) {
					t.Fatalf("%s: endpoint %d mates diverge from the in-process run", label, e)
				}
				if autoStats[e].Engine != "bfs" || !reflect.DeepEqual(statCounts(autoStats[e]), statCounts(bfsStats[e])) {
					t.Fatalf("%s: endpoint %d auto diverges from bfs:\n  auto %+v\n  bfs  %+v",
						label, e, statCounts(autoStats[e]), statCounts(bfsStats[e]))
				}
			}
		}
	}
}

// TestMaximumMatchingOnValidation pins the world-size check and the nil
// fallback.
func TestMaximumMatchingOnValidation(t *testing.T) {
	g, err := FromEdges(2, 2, [][2]int{{0, 0}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := MaximumMatchingOn(nil, g, Options{Procs: 1})
	if err != nil || m.Cardinality() != 2 {
		t.Fatalf("nil transport fallback: m=%v err=%v", m, err)
	}
	trs, err := LoopbackTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		var wg sync.WaitGroup
		for _, tr := range trs {
			wg.Add(1)
			go func(tr *Transport) { defer wg.Done(); tr.Close() }(tr)
		}
		wg.Wait()
	}()
	if _, _, err := MaximumMatchingOn(trs[0], g, Options{Procs: 4}); err == nil {
		t.Fatal("accepted Procs != world size")
	}
}
