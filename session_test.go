package mcmdist

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
)

func TestDistributedGraphReuse(t *testing.T) {
	g := mustRMAT(t, G500, 9, 4, 13)
	dg, err := Distribute(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	oracle, _ := MaximumMatchingSerial(g, HopcroftKarp, nil)
	want := oracle.Cardinality()

	// Several solves over the same distribution, varied configurations.
	for _, opts := range []Options{
		{Init: DynamicMindegreeInit},
		{Init: GreedyInit, Engine: "bfs-ss"},
		{Init: NoInit, Semiring: RandRoot},
	} {
		m, st, err := dg.MaximumMatching(opts)
		if err != nil {
			t.Fatal(err)
		}
		if m.Cardinality() != want {
			t.Fatalf("opts %+v: %d, oracle %d", opts, m.Cardinality(), want)
		}
		if err := g.VerifyMaximum(m); err != nil {
			t.Fatal(err)
		}
		if st.Procs != 4 || len(st.PerRank) != 4 {
			t.Fatalf("stats plumbing wrong: %+v", st)
		}
	}
}

func TestDistributeRejectsNonSquare(t *testing.T) {
	g := mustRMAT(t, ER, 5, 4, 1)
	if _, err := Distribute(g, 6); err == nil {
		t.Fatal("non-square accepted")
	}
	dg, err := Distribute(g, 0)
	if err != nil || dg.procs != 1 {
		t.Fatalf("procs 0 should default to 1: %v", err)
	}
}

func TestMaximalMatchingDistributed(t *testing.T) {
	g := mustRMAT(t, ER, 9, 5, 21)
	dg, err := Distribute(g, 9)
	if err != nil {
		t.Fatal(err)
	}
	oracle, _ := MaximumMatchingSerial(g, HopcroftKarp, nil)
	for _, init := range []Initializer{GreedyInit, KarpSipserInit, DynamicMindegreeInit} {
		m, st, err := dg.MaximalMatchingDistributed(init, 12)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Verify(m); err != nil {
			t.Fatalf("init %d: %v", init, err)
		}
		if !g.IsMaximal(m) {
			t.Fatalf("init %d: not maximal", init)
		}
		if 2*m.Cardinality() < oracle.Cardinality() {
			t.Fatalf("init %d: below 1/2-approximation (%d vs %d)",
				init, m.Cardinality(), oracle.Cardinality())
		}
		if st.Cardinality != m.Cardinality() {
			t.Fatalf("stats cardinality mismatch")
		}
	}
	// A thread argument of 0 means one thread, as it does for MaximumMatching.
	_, st, err := dg.MaximalMatchingDistributed(GreedyInit, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Threads != 1 {
		t.Fatalf("threads 0: Stats.Threads = %d, want 1", st.Threads)
	}
	if _, _, err := dg.MaximalMatchingDistributed(NoInit, 1); err == nil {
		t.Fatal("NoInit accepted for maximal matching")
	}
}

// TestDistributedGraphRejectsOtherGrid pins that a grid set in Options must
// be the distribution's: a DistributedGraph cannot re-block, so any other
// grid is an error rather than a solve on the distribution's grid.
func TestDistributedGraphRejectsOtherGrid(t *testing.T) {
	g := mustRMAT(t, ER, 6, 4, 3)
	dg, err := Distribute(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer dg.Close()
	entries := []struct {
		name  string
		solve func(Options) (*Stats, error)
	}{
		{"MaximumMatching", func(o Options) (*Stats, error) {
			_, st, err := dg.MaximumMatching(o)
			return st, err
		}},
		{"SolveRecoverable", func(o Options) (*Stats, error) {
			_, st, _, err := dg.SolveRecoverable(o, RecoveryPolicy{})
			return st, err
		}},
	}
	for _, e := range entries {
		for _, grid := range [][2]int{{4, 4}, {1, 4}, {4, 1}, {2, 0}, {0, 2}, {2, 1}} {
			opts := Options{GridRows: grid[0], GridCols: grid[1], Init: GreedyInit}
			if _, err := e.solve(opts); err == nil {
				t.Errorf("%s on a 2x2 distribution accepted grid %dx%d", e.name, grid[0], grid[1])
			}
		}
		for _, grid := range [][2]int{{2, 2}, {0, 0}} {
			opts := Options{GridRows: grid[0], GridCols: grid[1], Init: GreedyInit}
			st, err := e.solve(opts)
			if err != nil {
				t.Fatalf("%s rejected grid %dx%d: %v", e.name, grid[0], grid[1], err)
			}
			if st.Procs != 4 {
				t.Fatalf("%s grid %dx%d: Procs %d", e.name, grid[0], grid[1], st.Procs)
			}
		}
	}
}

// TestSessionMatchesOneShot pins that a solve on a DistributedGraph runs
// exactly what the one-shot MaximumMatching runs on the same grid: same
// mates, same counters, same metered communication per op and per rank,
// and the same number of time-series rows (per-rank and merged) — for
// every engine, with and without worker threads and observation.
func TestSessionMatchesOneShot(t *testing.T) {
	g := mustRMAT(t, G500, 8, 4, 17)
	dg, err := Distribute(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer dg.Close()
	for _, engine := range []string{"bfs", "bfs-ss"} {
		for _, threads := range []int{1, 3} {
			for _, observe := range []bool{false, true} {
				opts := Options{Procs: 4, Engine: engine, Threads: threads, Init: GreedyInit}
				name := fmt.Sprintf("%s/t=%d/observe=%v", engine, threads, observe)
				// Each solve gets its own Observe: a collector belongs to one run.
				newObserve := func() *Observe {
					if !observe {
						return nil
					}
					return &Observe{Spans: true, TimeSeries: true}
				}
				opts.Observe = newObserve()
				m1, st1, err := MaximumMatching(g, opts)
				if err != nil {
					t.Fatalf("%s: one-shot: %v", name, err)
				}
				opts.Observe = newObserve()
				m2, st2, err := dg.MaximumMatching(opts)
				if err != nil {
					t.Fatalf("%s: session: %v", name, err)
				}
				if !slices.Equal(m1.MateR, m2.MateR) || !slices.Equal(m1.MateC, m2.MateC) {
					t.Fatalf("%s: mates differ", name)
				}
				type counters struct {
					Cardinality, Phases, Iterations, AugmentedPaths int
					Engine                                          string
					Threads                                         int
				}
				c1 := counters{st1.Cardinality, st1.Phases, st1.Iterations, st1.AugmentedPaths, st1.Engine, st1.Threads}
				c2 := counters{st2.Cardinality, st2.Phases, st2.Iterations, st2.AugmentedPaths, st2.Engine, st2.Threads}
				if c1 != c2 {
					t.Fatalf("%s: counters differ: one-shot %+v, session %+v", name, c1, c2)
				}
				if !maps.Equal(st1.CommByOp, st2.CommByOp) {
					t.Fatalf("%s: CommByOp differs:\none-shot %v\nsession  %v", name, st1.CommByOp, st2.CommByOp)
				}
				if !slices.Equal(st1.PerRank, st2.PerRank) {
					t.Fatalf("%s: PerRank differs:\none-shot %v\nsession  %v", name, st1.PerRank, st2.PerRank)
				}
				if observe {
					if n1, n2 := seriesRows(t, st1.Obs), seriesRows(t, st2.Obs); n1 != n2 || n1 == 0 {
						t.Fatalf("%s: time-series rows: one-shot %d, session %d", name, n1, n2)
					}
				}
			}
		}
	}
}

// seriesRows counts the data rows of rep's time-series CSV: every rank's
// samples plus the cross-rank merged ones.
func seriesRows(t *testing.T, rep *ObsReport) int {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteTimeSeriesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return strings.Count(buf.String(), "\n") - 1 // minus the header
}
