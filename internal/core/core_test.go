package core

import (
	"math/rand"
	"testing"

	"mcmdist/internal/dvec"
	"mcmdist/internal/gen"
	"mcmdist/internal/matching"
	"mcmdist/internal/mpi"
	"mcmdist/internal/rmat"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

func randomBipartite(rng *rand.Rand, nr, nc, m int) *spmat.CSC {
	c := spmat.NewCOO(nr, nc)
	for k := 0; k < m; k++ {
		c.Add(rng.Intn(nr), rng.Intn(nc))
	}
	return c.ToCSC()
}

// mustSolve runs Solve and fails the test on error or invalid matching.
func mustSolve(t *testing.T, a *spmat.CSC, cfg Config) *Result {
	t.Helper()
	res, err := Solve(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Matching.Validate(a); err != nil {
		t.Fatalf("cfg %+v: %v", cfg, err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	a := randomBipartite(rand.New(rand.NewSource(1)), 5, 5, 10)
	if _, err := Solve(a, Config{Procs: 3}); err == nil {
		t.Fatal("non-square Procs accepted")
	}
	if _, err := Solve(a, Config{Procs: 8}); err == nil {
		t.Fatal("non-square Procs accepted")
	}
	if _, err := Solve(a, Config{Procs: 0}); err != nil {
		t.Fatalf("Procs 0 should default to 1: %v", err)
	}
	if err := (Config{Procs: 3}).Validate(); err == nil {
		t.Fatal("Validate accepted non-square Procs")
	}
	if err := (Config{GridRows: 1, GridCols: 3}).Validate(); err != nil {
		t.Fatalf("Validate rejected an explicit 1x3 grid: %v", err)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("Validate rejected Procs 0: %v", err)
	}
}

func TestEnumStrings(t *testing.T) {
	if InitNone.String() != "none" || InitGreedy.String() != "greedy" ||
		InitKarpSipser.String() != "karpsipser" || InitDynMinDegree.String() != "mindegree" {
		t.Fatal("Init names wrong")
	}
	if Init(42).String() != "Init(42)" {
		t.Fatal("unknown Init name wrong")
	}
	if AugmentAuto.String() != "auto" || AugmentLevelParallel.String() != "level" ||
		AugmentPathParallel.String() != "path" {
		t.Fatal("AugmentMode names wrong")
	}
	if AugmentMode(9).String() != "AugmentMode(9)" {
		t.Fatal("unknown AugmentMode name wrong")
	}
}

// TestWorkedExample is the Fig. 1 / Fig. 2 style worked example: a 5x5
// bipartite graph with initial matching {(r1,c2), (r3,c3)} and unmatched
// columns {c0, c1, c4}. One MS-BFS phase discovers three vertex-disjoint
// augmenting paths (all single edges) and the matching becomes perfect.
func TestWorkedExample(t *testing.T) {
	coo := spmat.NewCOO(5, 5)
	for _, e := range [][2]int{
		{0, 0}, {1, 0}, // c0: r0, r1
		{1, 1}, {2, 1}, // c1: r1, r2
		{1, 2}, {2, 2}, {3, 2}, // c2: r1, r2, r3
		{3, 3}, {4, 3}, // c3: r3, r4
		{4, 4}, // c4: r4
	} {
		coo.Add(e[0], e[1])
	}
	a := coo.ToCSC()

	for _, procs := range []int{1, 4} {
		res, err := Solve(a, Config{Procs: procs, Init: InitNone, AddOp: semiring.MinParent})
		if err != nil {
			t.Fatal(err)
		}
		// With InitNone the first phase starts from the empty matching and
		// must drive cardinality to the perfect 5.
		if res.Stats.Cardinality != 5 {
			t.Fatalf("p=%d: cardinality %d, want 5", procs, res.Stats.Cardinality)
		}
		if err := res.Matching.Validate(a); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWorkedExamplePhase checks the exact per-step behavior of one MS-BFS
// phase on the worked example with the initial matching of the figure:
// the phase finds exactly 3 augmenting paths, prunes r1's continuation, and
// finishes in a single iteration.
func TestWorkedExamplePhase(t *testing.T) {
	coo := spmat.NewCOO(5, 5)
	for _, e := range [][2]int{
		{0, 0}, {1, 0}, {1, 1}, {2, 1}, {1, 2}, {2, 2}, {3, 2}, {3, 3}, {4, 3}, {4, 4},
	} {
		coo.Add(e[0], e[1])
	}
	a := coo.ToCSC()

	// Seed mate vectors with the figure's initial matching via a custom run.
	side := 2
	blocks := spmat.DistributeRanks(a, side, side, nil)
	stats := make([]*Stats, side*side)
	var mateR, mateC []int64
	err := RunDistributed(side, a.NRows, a.NCols, blocks,
		Config{Procs: side * side, AddOp: semiring.MinParent}, func(s *Solver) error {
			mater := dvec.NewDenseFrom(s.RowL, []int64{-1, 2, -1, 3, -1})
			matec := dvec.NewDenseFrom(s.ColL, []int64{-1, -1, 1, 3, -1})
			if err := s.RunEngineByName(EngineBFS, mater, matec); err != nil {
				return err
			}
			fullR := mater.Gather()
			fullC := matec.Gather()
			if s.G.World.Rank() == 0 {
				mateR, mateC = fullR, fullC
			}
			stats[s.G.World.Rank()] = s.Stats
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}

	st := stats[0]
	if st.Cardinality != 5 {
		t.Fatalf("cardinality %d, want 5", st.Cardinality)
	}
	if st.Phases != 1 {
		t.Fatalf("phases %d, want 1 (all paths found in the first phase)", st.Phases)
	}
	if st.AugmentedPaths != 3 {
		t.Fatalf("paths %d, want 3", st.AugmentedPaths)
	}
	// The pruning of r1 ends the phase after one iteration: the second
	// phase's scan plus the first phase's single level gives 1 iteration.
	if st.Iterations != 1 {
		t.Fatalf("iterations %d, want 1", st.Iterations)
	}
	m := &matching.Matching{MateR: mateR, MateC: mateC}
	if err := m.Validate(a); err != nil {
		t.Fatal(err)
	}
	// The figure's deterministic minParent outcome.
	want := []int64{0, 2, 1, 3, 4} // mateR
	for i, w := range want {
		if mateR[i] != w {
			t.Fatalf("mateR = %v, want %v", mateR, want)
		}
	}
}

func TestMCMDistMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 6; trial++ {
		nr, nc := 10+rng.Intn(40), 10+rng.Intn(40)
		a := randomBipartite(rng, nr, nc, rng.Intn(4*(nr+nc))+nr)
		want := matching.HopcroftKarp(a, nil).Cardinality()
		for _, procs := range []int{1, 4, 9} {
			for _, init := range []Init{InitNone, InitGreedy} {
				res := mustSolve(t, a, Config{Procs: procs, Init: init})
				if res.Stats.Cardinality != want {
					t.Fatalf("trial %d p=%d init=%v: %d, oracle %d",
						trial, procs, init, res.Stats.Cardinality, want)
				}
				if got := res.Matching.Cardinality(); got != want {
					t.Fatalf("matching cardinality %d != stats %d", got, want)
				}
			}
		}
	}
}

func TestMCMDistAllInitializers(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randomBipartite(rng, 60, 60, 260)
	want := matching.HopcroftKarp(a, nil).Cardinality()
	for _, init := range []Init{InitNone, InitGreedy, InitKarpSipser, InitDynMinDegree} {
		res := mustSolve(t, a, Config{Procs: 4, Init: init})
		if res.Stats.Cardinality != want {
			t.Fatalf("init=%v: %d, oracle %d", init, res.Stats.Cardinality, want)
		}
		if init != InitNone {
			// Initializer must already be a sizable matching (>= half of MCM).
			if 2*res.Stats.InitCardinality < want {
				t.Fatalf("init=%v: init cardinality %d below maximal bound %d/2",
					init, res.Stats.InitCardinality, want)
			}
		}
	}
}

func TestMCMDistSemirings(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomBipartite(rng, 50, 55, 240)
	want := matching.HopcroftKarp(a, nil).Cardinality()
	for _, op := range []semiring.AddOp{semiring.MinParent, semiring.RandRoot, semiring.RandParent} {
		res := mustSolve(t, a, Config{Procs: 4, AddOp: op})
		if res.Stats.Cardinality != want {
			t.Fatalf("op=%v: %d, oracle %d", op, res.Stats.Cardinality, want)
		}
	}
}

func TestMCMDistAugmentModes(t *testing.T) {
	// Ladder graph: unique long augmenting path (exercises multi-level
	// augmentation in both variants).
	const n = 60
	coo := spmat.NewCOO(n, n)
	for k := 0; k < n; k++ {
		coo.Add(k, k)
		if k+1 < n {
			coo.Add(k+1, k)
		}
	}
	a := coo.ToCSC()
	for _, mode := range []AugmentMode{AugmentAuto, AugmentLevelParallel, AugmentPathParallel} {
		for _, procs := range []int{1, 4} {
			res := mustSolve(t, a, Config{Procs: procs, Augment: mode, Init: InitGreedy})
			if res.Stats.Cardinality != n {
				t.Fatalf("mode=%v p=%d: %d, want perfect %d", mode, procs, res.Stats.Cardinality, n)
			}
			switch mode {
			case AugmentLevelParallel:
				if res.Stats.PathParallelAugments > 0 {
					t.Fatalf("mode=%v used path-parallel", mode)
				}
			case AugmentPathParallel:
				if res.Stats.LevelParallelAugments > 0 {
					t.Fatalf("mode=%v used level-parallel", mode)
				}
			}
		}
	}
}

func TestAutoSwitchUsesPathParallelForFewPaths(t *testing.T) {
	// k is always < 2p^2 at these sizes, so auto must pick path-parallel.
	rng := rand.New(rand.NewSource(12))
	a := randomBipartite(rng, 40, 40, 160)
	res := mustSolve(t, a, Config{Procs: 4, Augment: AugmentAuto, Init: InitGreedy})
	if res.Stats.Phases > 0 && res.Stats.PathParallelAugments == 0 {
		t.Fatalf("auto mode never used path-parallel with k << 2p²: %+v", res.Stats)
	}
	if res.Stats.LevelParallelAugments > 0 {
		t.Fatalf("auto picked level-parallel for k < 2p²")
	}
}

func TestMCMDistPruneAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomBipartite(rng, 70, 70, 300)
	want := matching.HopcroftKarp(a, nil).Cardinality()
	on := mustSolve(t, a, Config{Procs: 4})
	off := mustSolve(t, a, Config{Procs: 4, DisablePrune: true})
	if on.Stats.Cardinality != want || off.Stats.Cardinality != want {
		t.Fatalf("prune on/off cardinalities %d/%d, oracle %d",
			on.Stats.Cardinality, off.Stats.Cardinality, want)
	}
	if on.Stats.Meter[OpPrune].Msgs == 0 && on.Stats.Phases > 0 {
		t.Fatal("prune enabled but no prune communication recorded")
	}
	if off.Stats.Meter[OpPrune] != (on.Stats.Meter[OpPrune].Sub(on.Stats.Meter[OpPrune])) {
		t.Fatal("prune disabled but prune meter nonzero")
	}
}

func TestMCMDistPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randomBipartite(rng, 45, 50, 200)
	want := matching.HopcroftKarp(a, nil).Cardinality()
	res := mustSolve(t, a, Config{Procs: 4, Permute: true, Seed: 3})
	if got := res.Matching.Cardinality(); got != want {
		t.Fatalf("permuted solve: %d, oracle %d", got, want)
	}
}

func TestMCMDistOnSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("suite in -short mode")
	}
	for _, sp := range gen.Suite()[:6] {
		a := gen.MustGenerate(sp, 6)
		want := matching.HopcroftKarp(a, nil).Cardinality()
		res := mustSolve(t, a, Config{Procs: 4, Permute: true, Seed: 1})
		if got := res.Matching.Cardinality(); got != want {
			t.Fatalf("%s: %d, oracle %d", sp.Name, got, want)
		}
	}
}

func TestMCMDistOnRMAT(t *testing.T) {
	for _, p := range []rmat.Params{rmat.G500, rmat.ER} {
		a := rmat.MustGenerate(p, 7, 4, 21)
		want := matching.HopcroftKarp(a, nil).Cardinality()
		res := mustSolve(t, a, Config{Procs: 9, Init: InitDynMinDegree})
		if res.Stats.Cardinality != want {
			t.Fatalf("rmat %+v: %d, oracle %d", p, res.Stats.Cardinality, want)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := randomBipartite(rng, 50, 50, 120) // sparse: greedy leaves gaps
	res := mustSolve(t, a, Config{Procs: 4, Init: InitGreedy})
	st := res.Stats
	if st.Wall[OpInit] <= 0 {
		t.Error("no init wall time recorded")
	}
	if st.Phases > 0 {
		if st.Wall[OpSpMV] <= 0 || st.Meter[OpSpMV].Msgs == 0 {
			t.Error("no SpMV activity recorded despite phases")
		}
		if st.Wall[OpAugment] <= 0 {
			t.Error("no augment wall time recorded")
		}
	}
	if st.TotalWall() <= 0 {
		t.Error("total wall zero")
	}
	if len(res.PerRank) != 4 {
		t.Errorf("PerRank has %d entries", len(res.PerRank))
	}
	if res.String() == "" {
		t.Error("empty String()")
	}
}

func TestRectangularGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, dims := range [][2]int{{10, 80}, {80, 10}, {1, 50}, {50, 1}} {
		a := randomBipartite(rng, dims[0], dims[1], 3*(dims[0]+dims[1]))
		want := matching.HopcroftKarp(a, nil).Cardinality()
		res := mustSolve(t, a, Config{Procs: 4})
		if res.Stats.Cardinality != want {
			t.Fatalf("%v: %d, oracle %d", dims, res.Stats.Cardinality, want)
		}
	}
}

func TestEmptyAndEdgeCaseGraphs(t *testing.T) {
	empty := spmat.NewCOO(6, 6).ToCSC()
	res := mustSolve(t, empty, Config{Procs: 4})
	if res.Stats.Cardinality != 0 {
		t.Fatalf("empty graph: %d", res.Stats.Cardinality)
	}
	single := spmat.NewCOO(1, 1)
	single.Add(0, 0)
	res = mustSolve(t, single.ToCSC(), Config{Procs: 4})
	if res.Stats.Cardinality != 1 {
		t.Fatalf("single edge: %d", res.Stats.Cardinality)
	}
}

func TestDeterministicAcrossGridSizes(t *testing.T) {
	// Cardinality (not the specific matching) must be grid-invariant.
	rng := rand.New(rand.NewSource(18))
	a := randomBipartite(rng, 64, 64, 256)
	want := -1
	for _, procs := range []int{1, 4, 9, 16} {
		res := mustSolve(t, a, Config{Procs: procs})
		if want == -1 {
			want = res.Stats.Cardinality
		} else if res.Stats.Cardinality != want {
			t.Fatalf("p=%d: cardinality %d, others %d", procs, res.Stats.Cardinality, want)
		}
	}
}

func TestDirectionOptimizedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 5; trial++ {
		nr, nc := 20+rng.Intn(60), 20+rng.Intn(60)
		a := randomBipartite(rng, nr, nc, 4*(nr+nc))
		want := matching.HopcroftKarp(a, nil).Cardinality()
		for _, procs := range []int{1, 4, 9} {
			res := mustSolve(t, a, Config{Procs: procs, Direction: DirectionAuto})
			if res.Stats.Cardinality != want {
				t.Fatalf("trial %d p=%d: %d, oracle %d", trial, procs, res.Stats.Cardinality, want)
			}
		}
	}
}

func TestDirectionOptimizedUsesBothDirections(t *testing.T) {
	// With InitNone the first phase starts from all columns unmatched: the
	// frontier is 100% of the columns, forcing pull; later phases have tiny
	// frontiers, forcing push.
	rng := rand.New(rand.NewSource(24))
	a := randomBipartite(rng, 200, 200, 900)
	res := mustSolve(t, a, Config{Procs: 4, Direction: DirectionAuto, Init: InitNone})
	if res.Stats.PullIterations == 0 {
		t.Fatal("direction optimization never used pull despite full initial frontier")
	}
	if res.Stats.PushIterations == 0 {
		t.Fatal("direction optimization never fell back to push")
	}
	if res.Stats.PullIterations+res.Stats.PushIterations != res.Stats.Iterations {
		t.Fatalf("direction split %d+%d != iterations %d",
			res.Stats.PullIterations, res.Stats.PushIterations, res.Stats.Iterations)
	}
}

func TestDirectionOptimizedOffUsesOnlyPush(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	a := randomBipartite(rng, 50, 50, 200)
	res := mustSolve(t, a, Config{Procs: 4})
	if res.Stats.PullIterations != 0 {
		t.Fatal("pull used under the default push direction")
	}
	if res.Stats.PushIterations != res.Stats.Iterations {
		t.Fatal("push iteration accounting wrong")
	}
}

func TestPullThresholdRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	a := randomBipartite(rng, 100, 100, 500)
	// Threshold above 1.0 can never trigger: all pushes.
	res := mustSolve(t, a, Config{Procs: 4, Direction: DirectionAuto, PullThreshold: 1.5})
	if res.Stats.PullIterations != 0 {
		t.Fatal("pull used despite impossible threshold")
	}
}

// TestDistributedInitializersAreMaximal gathers each initializer's result
// and checks maximality and validity against the serial definitions.
func TestDistributedInitializersAreMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 4; trial++ {
		a := randomBipartite(rng, 30+rng.Intn(40), 30+rng.Intn(40), 300)
		side := 2
		blocks := spmat.DistributeRanks(a, side, side, nil)
		for _, init := range []Init{InitGreedy, InitKarpSipser, InitDynMinDegree} {
			var mateR, mateC []int64
			err := RunDistributed(side, a.NRows, a.NCols, blocks,
				Config{Procs: side * side, Init: init}, func(s *Solver) error {
					mater, matec := s.MaximalInit()
					fullR := mater.Gather()
					fullC := matec.Gather()
					if s.G.World.Rank() == 0 {
						mateR, mateC = fullR, fullC
					}
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			m := &matching.Matching{MateR: mateR, MateC: mateC}
			if err := m.Validate(a); err != nil {
				t.Fatalf("trial %d init=%v: %v", trial, init, err)
			}
			if !m.IsMaximal(a) {
				t.Fatalf("trial %d init=%v: matching not maximal", trial, init)
			}
		}
	}
}

func TestTreeGraftingMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		nr, nc := 20+rng.Intn(60), 20+rng.Intn(60)
		a := randomBipartite(rng, nr, nc, rng.Intn(4*(nr+nc))+nr)
		want := matching.HopcroftKarp(a, nil).Cardinality()
		for _, procs := range []int{1, 4, 9} {
			for _, init := range []Init{InitNone, InitGreedy, InitDynMinDegree} {
				res := mustSolve(t, a, Config{Procs: procs, Init: init, Engine: EngineBFSGraft})
				if res.Stats.Cardinality != want {
					t.Fatalf("trial %d p=%d init=%v: graft %d, oracle %d",
						trial, procs, init, res.Stats.Cardinality, want)
				}
			}
		}
	}
}

func TestTreeGraftingOnStructuredGraphs(t *testing.T) {
	for _, sp := range gen.Suite()[:5] {
		a := gen.MustGenerate(sp, 6)
		want := matching.HopcroftKarp(a, nil).Cardinality()
		res := mustSolve(t, a, Config{Procs: 4, Init: InitGreedy, Engine: EngineBFSGraft, Permute: true})
		if res.Stats.Cardinality != want {
			t.Fatalf("%s: graft %d, oracle %d", sp.Name, res.Stats.Cardinality, want)
		}
	}
}

func TestTreeGraftingAllAugmentModes(t *testing.T) {
	// Long augmenting paths through persistent trees exercise the
	// cross-phase parent chains in both augmentation variants.
	const n = 50
	coo := spmat.NewCOO(n, n)
	for k := 0; k < n; k++ {
		coo.Add(k, k)
		if k+1 < n {
			coo.Add(k+1, k)
		}
	}
	a := coo.ToCSC()
	for _, mode := range []AugmentMode{AugmentLevelParallel, AugmentPathParallel} {
		res := mustSolve(t, a, Config{Procs: 4, Init: InitGreedy, Engine: EngineBFSGraft, Augment: mode})
		if res.Stats.Cardinality != n {
			t.Fatalf("mode=%v: %d, want %d", mode, res.Stats.Cardinality, n)
		}
	}
}

func TestTreeGraftingStats(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := randomBipartite(rng, 120, 120, 400) // sparse enough for several phases
	res := mustSolve(t, a, Config{Procs: 4, Init: InitGreedy, Engine: EngineBFSGraft})
	if res.Stats.Phases > 0 && res.Stats.GraftReleasedRows == 0 {
		t.Error("phases augmented but no rows ever released")
	}
	if res.Stats.GraftResets == 0 {
		t.Error("termination requires at least one full-reset verification phase... unless first sweep found nothing")
	}
}

// TestAugmentedPathsAccounting: the symmetric-difference invariant of
// Section II — every applied path raises cardinality by one — shows up in
// the stats: final = initial + total augmenting paths, on every variant.
func TestAugmentedPathsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 5; trial++ {
		a := randomBipartite(rng, 60, 60, 250)
		for _, cfg := range []Config{
			{Procs: 4, Init: InitGreedy},
			{Procs: 4, Init: InitGreedy, Engine: EngineBFSGraft},
			{Procs: 9, Init: InitNone, Augment: AugmentLevelParallel},
			{Procs: 4, Init: InitDynMinDegree, Direction: DirectionAuto},
		} {
			res := mustSolve(t, a, cfg)
			if res.Stats.Cardinality != res.Stats.InitCardinality+res.Stats.AugmentedPaths {
				t.Fatalf("trial %d cfg %+v: %d != %d + %d", trial, cfg,
					res.Stats.Cardinality, res.Stats.InitCardinality, res.Stats.AugmentedPaths)
			}
		}
	}
}

// TestSectionIVBBounds validates the paper's Section IV-B aggregate
// communication analysis against the exact meters, within constant factors:
//
//	SpMV   per rank per phase: O(m/p + n/sqrt(p)) words
//	INVERT per rank per phase: O(n/p) words (frontier sum is O(n))
//	PRUNE  per rank per phase: O(n) words gathered, usually far less
func TestSectionIVBBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	a := randomBipartite(rng, 256, 256, 1600)
	const procs = 16
	res := mustSolve(t, a, Config{Procs: procs, Init: InitNone, Permute: true, Seed: 2})

	phases := res.Stats.Phases + 1 // count the final empty phase's scan
	n := float64(a.NCols + a.NRows)
	m := float64(a.NNZ())
	p := float64(procs)
	sqrtP := 4.0

	// Constant factors absorb the (parent, root) pair width (3 words per
	// element) and implementation slack.
	const c = 8.0

	spmvWords := float64(res.Stats.Meter[OpSpMV].Words)
	if bound := c * float64(phases) * (m/p + n/sqrtP); spmvWords > bound {
		t.Errorf("SpMV words %g exceed IV-B bound %g", spmvWords, bound)
	}
	invertWords := float64(res.Stats.Meter[OpInvert].Words)
	if bound := c * float64(phases) * n; invertWords > bound { // O(n) aggregate per phase
		t.Errorf("INVERT words %g exceed IV-B bound %g", invertWords, bound)
	}
	pruneWords := float64(res.Stats.Meter[OpPrune].Words)
	if bound := c * float64(phases) * n; pruneWords > bound {
		t.Errorf("PRUNE words %g exceed IV-B bound %g", pruneWords, bound)
	}
	// The paper: "the bandwidth cost for PRUNE is usually insignificant to
	// that of SpMV".
	if res.Stats.Phases > 0 && pruneWords > spmvWords {
		t.Errorf("PRUNE words %g exceed SpMV words %g", pruneWords, spmvWords)
	}
}

// TestEmptyRowsAndColumns: isolated vertices must not confuse any stage.
func TestEmptyRowsAndColumns(t *testing.T) {
	coo := spmat.NewCOO(10, 10)
	// Only a 3x3 corner has edges; rows/cols 3..9 are isolated.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			coo.Add(i, j)
		}
	}
	a := coo.ToCSC()
	for _, cfg := range []Config{
		{Procs: 4},
		{Procs: 4, Engine: EngineBFSGraft},
		{Procs: 4, Direction: DirectionAuto},
		{Procs: 4, Init: InitKarpSipser},
	} {
		res := mustSolve(t, a, cfg)
		if res.Stats.Cardinality != 3 {
			t.Fatalf("cfg %+v: %d, want 3", cfg, res.Stats.Cardinality)
		}
	}
}

// TestCommKindAttribution uses the per-collective telemetry to confirm the
// paper's pattern mapping: SpMV expand and PRUNE ride allgathers, INVERT
// and SpMV fold ride personalized all-to-alls, and only the path-parallel
// augmentation issues one-sided RMA operations.
func TestCommKindAttribution(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	a := randomBipartite(rng, 80, 80, 300)
	side := 2
	blocks := spmat.DistributeRanks(a, side, side, nil)

	runAndMeter := func(mode AugmentMode) (rma, a2a, ag mpi.Meter) {
		var w *mpi.World
		err := RunDistributed(side, a.NRows, a.NCols, blocks,
			Config{Procs: side * side, Init: InitGreedy, Augment: mode},
			func(s *Solver) error {
				mater, matec := s.MaximalInit()
				if err := s.RunEngineByName(EngineBFS, mater, matec); err != nil {
					return err
				}
				if s.G.World.Rank() == 0 {
					w = s.G.World.World()
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < side*side; r++ {
			rma = rma.Add(w.RankKindMeter(r, mpi.KindRMA))
			a2a = a2a.Add(w.RankKindMeter(r, mpi.KindAlltoall))
			ag = ag.Add(w.RankKindMeter(r, mpi.KindAllgather))
		}
		return rma, a2a, ag
	}

	rmaPath, a2aPath, agPath := runAndMeter(AugmentPathParallel)
	if a2aPath.Msgs == 0 || agPath.Msgs == 0 {
		t.Fatal("SpMV/INVERT collectives not recorded")
	}
	if rmaPath.Msgs == 0 {
		t.Fatal("path-parallel augmentation issued no RMA operations")
	}
	rmaLevel, _, _ := runAndMeter(AugmentLevelParallel)
	if rmaLevel.Msgs != 0 {
		t.Fatalf("level-parallel augmentation issued %d RMA messages", rmaLevel.Msgs)
	}
}

// TestRectangularGrids: this implementation supports the rectangular
// process grids the paper's CombBLAS build could not ("we only used square
// process grids because rectangular grids are not supported").
func TestRectangularGrids(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	a := randomBipartite(rng, 70, 50, 320)
	want := matching.HopcroftKarp(a, nil).Cardinality()
	for _, shape := range [][2]int{{1, 4}, {4, 1}, {2, 3}, {3, 2}, {2, 8}, {1, 9}} {
		for _, engine := range []string{EngineBFS, EngineBFSGraft} {
			cfg := Config{GridRows: shape[0], GridCols: shape[1],
				Init: InitDynMinDegree, Engine: engine, Permute: true, Seed: 4}
			res := mustSolve(t, a, cfg)
			if res.Stats.Cardinality != want {
				t.Fatalf("grid %v %s: %d, oracle %d", shape, engine, res.Stats.Cardinality, want)
			}
			if res.Procs != shape[0]*shape[1] {
				t.Fatalf("grid %v: procs %d", shape, res.Procs)
			}
		}
	}
	// Bad shapes rejected.
	if _, err := Solve(a, Config{GridRows: 2}); err == nil {
		t.Fatal("half-specified grid accepted")
	}
	if _, err := Solve(a, Config{GridRows: -1, GridCols: 2}); err == nil {
		t.Fatal("negative grid accepted")
	}
}

func TestSingleSourceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 4; trial++ {
		a := randomBipartite(rng, 40, 40, 180)
		want := matching.HopcroftKarp(a, nil).Cardinality()
		side := 2
		blocks := spmat.DistributeRanks(a, side, side, nil)
		var card int
		err := RunDistributed(side, a.NRows, a.NCols, blocks,
			Config{Procs: 4, Init: InitGreedy}, func(s *Solver) error {
				mater, matec := s.MaximalInit()
				if err := s.RunEngineByName(EngineBFSSingleSource, mater, matec); err != nil {
					return err
				}
				if s.G.World.Rank() == 0 {
					card = s.Stats.Cardinality
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if card != want {
			t.Fatalf("trial %d: SS-BFS %d, oracle %d", trial, card, want)
		}
	}
}

// TestSingleSourceNeedsFarMoreIterations quantifies Section III-A's
// argument against single-source algorithms: at equal inputs, SS-BFS
// executes many times more level-synchronous iterations (each a full round
// of collectives) than MS-BFS.
func TestSingleSourceNeedsFarMoreIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	a := randomBipartite(rng, 150, 150, 450) // sparse: many augmenting phases
	side := 2
	blocks := spmat.DistributeRanks(a, side, side, nil)

	iters := func(single bool) int {
		var n int
		err := RunDistributed(side, a.NRows, a.NCols, blocks,
			Config{Procs: 4, Init: InitNone}, func(s *Solver) error {
				mater, matec := s.MaximalInit()
				if single {
					if err := s.RunEngineByName(EngineBFSSingleSource, mater, matec); err != nil {
						return err
					}
				} else {
					if err := s.RunEngineByName(EngineBFS, mater, matec); err != nil {
						return err
					}
				}
				if s.G.World.Rank() == 0 {
					n = s.Stats.Iterations
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	ms := iters(false)
	ss := iters(true)
	if ss < 3*ms {
		t.Fatalf("SS-BFS used %d iterations vs MS-BFS %d — expected a large multiple", ss, ms)
	}
}

// TestMoreRanksThanVertices: zero-length blocks on most ranks must work.
func TestMoreRanksThanVertices(t *testing.T) {
	coo := spmat.NewCOO(2, 2)
	coo.Add(0, 0)
	coo.Add(1, 0)
	coo.Add(1, 1)
	a := coo.ToCSC()
	for _, procs := range []int{9, 16} {
		res := mustSolve(t, a, Config{Procs: procs, Init: InitGreedy})
		if res.Stats.Cardinality != 2 {
			t.Fatalf("p=%d: %d, want 2", procs, res.Stats.Cardinality)
		}
	}
}
