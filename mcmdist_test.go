package mcmdist

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"mcmdist/internal/matching"
)

func mustRMAT(t *testing.T, class RMATClass, scale, ef int, seed int64) *Graph {
	t.Helper()
	g, err := RMAT(class, scale, ef, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(3, 3, [][2]int{{0, 0}, {1, 1}, {2, 2}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows() != 3 || g.Cols() != 3 || g.Edges() != 3 {
		t.Fatalf("graph = %v", g)
	}
	if !g.HasEdge(1, 1) || g.HasEdge(0, 1) || g.HasEdge(-1, 0) || g.HasEdge(0, 9) {
		t.Fatal("HasEdge wrong")
	}
	if _, err := FromEdges(2, 2, [][2]int{{2, 0}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := FromEdges(-1, 2, nil); err == nil {
		t.Fatal("negative dims accepted")
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	g, _ := FromEdges(4, 5, [][2]int{{0, 0}, {3, 4}, {1, 2}})
	var buf bytes.Buffer
	if err := g.WriteMatrixMarket(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := FromMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Edges() != 3 || !back.HasEdge(3, 4) {
		t.Fatal("round trip lost edges")
	}
	if _, err := FromMatrixMarket(strings.NewReader("junk")); err == nil {
		t.Fatal("junk accepted")
	}
	if _, err := FromMatrixMarketFile("/nonexistent/x.mtx"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRMATClasses(t *testing.T) {
	for _, c := range []RMATClass{G500, SSCA, ER} {
		g := mustRMAT(t, c, 6, 0, 1) // edgeFactor 0 = paper default
		n := 1 << 6
		if g.Rows() != n || g.Cols() != n {
			t.Fatalf("%v: dims %dx%d", c, g.Rows(), g.Cols())
		}
	}
	if _, err := RMAT(RMATClass(99), 6, 8, 1); err == nil {
		t.Fatal("unknown class accepted")
	}
	if G500.String() != "G500" || SSCA.String() != "SSCA" || ER.String() != "ER" {
		t.Fatal("class names wrong")
	}
	if RMATClass(7).String() != "RMATClass(7)" {
		t.Fatal("unknown class name wrong")
	}
}

func TestTableIIAccess(t *testing.T) {
	names := TableIINames()
	if len(names) != 13 {
		t.Fatalf("TableII has %d entries", len(names))
	}
	g, err := TableII("road_usa", 8)
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges() == 0 {
		t.Fatal("empty road_usa stand-in")
	}
	if _, err := TableII("not-a-matrix", 8); err == nil {
		t.Fatal("unknown name accepted")
	}
	if _, err := TableII("road_usa", 1); err == nil {
		t.Fatal("tiny scale accepted")
	}
}

func TestMaximumMatchingEndToEnd(t *testing.T) {
	g := mustRMAT(t, G500, 8, 4, 7)
	m, st, err := MaximumMatching(g, Options{Procs: 4, Init: DynamicMindegreeInit, Permute: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Verify(m); err != nil {
		t.Fatal(err)
	}
	if err := g.VerifyMaximum(m); err != nil {
		t.Fatal(err)
	}
	if m.Cardinality() != st.Cardinality {
		t.Fatalf("cardinality mismatch %d vs %d", m.Cardinality(), st.Cardinality)
	}
	oracle, err := MaximumMatchingSerial(g, HopcroftKarp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cardinality() != oracle.Cardinality() {
		t.Fatalf("distributed %d != oracle %d", m.Cardinality(), oracle.Cardinality())
	}
	if st.Procs != 4 || st.Threads != 1 {
		t.Fatalf("stats config echo wrong: %+v", st)
	}
	if len(st.PerRank) != 4 {
		t.Fatalf("PerRank %d", len(st.PerRank))
	}
	if st.ModeledSeconds(EdisonXC30) <= 0 {
		t.Fatal("modeled time not positive")
	}
	if len(st.ModeledBreakdown(EdisonXC30)) == 0 {
		t.Fatal("empty modeled breakdown")
	}
}

func TestMaximumMatchingRejectsNonSquare(t *testing.T) {
	g := mustRMAT(t, ER, 5, 4, 1)
	if _, _, err := MaximumMatching(g, Options{Procs: 7}); err == nil {
		t.Fatal("non-square Procs accepted")
	}
}

func TestAllOptionCombinations(t *testing.T) {
	g := mustRMAT(t, ER, 6, 3, 9)
	oracle, _ := MaximumMatchingSerial(g, HopcroftKarp, nil)
	want := oracle.Cardinality()
	for _, init := range []Initializer{NoInit, GreedyInit, KarpSipserInit, DynamicMindegreeInit} {
		for _, sr := range []Semiring{MinParent, RandRoot, RandParent} {
			for _, aug := range []Augmentation{AutoAugment, LevelParallel, PathParallel} {
				m, _, err := MaximumMatching(g, Options{
					Procs: 4, Init: init, Semiring: sr, Augment: aug,
				})
				if err != nil {
					t.Fatalf("init=%d sr=%d aug=%d: %v", init, sr, aug, err)
				}
				if m.Cardinality() != want {
					t.Fatalf("init=%d sr=%d aug=%d: %d want %d", init, sr, aug, m.Cardinality(), want)
				}
			}
		}
	}
}

func TestSerialAlgorithmsAgree(t *testing.T) {
	g := mustRMAT(t, SSCA, 8, 4, 3)
	want := -1
	for _, alg := range []SerialAlgorithm{HopcroftKarp, PothenFan, MSBFS, MSBFSGraft, PushRelabelAlg} {
		m, err := MaximumMatchingSerial(g, alg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.VerifyMaximum(m); err != nil {
			t.Fatalf("alg %d: %v", alg, err)
		}
		if want == -1 {
			want = m.Cardinality()
		} else if m.Cardinality() != want {
			t.Fatalf("alg %d: %d want %d", alg, m.Cardinality(), want)
		}
	}
	if _, err := MaximumMatchingSerial(g, SerialAlgorithm(99), nil); err == nil {
		t.Fatal("unknown serial algorithm accepted")
	}
}

func TestSerialWithWarmStart(t *testing.T) {
	g := mustRMAT(t, G500, 8, 4, 4)
	init, err := MaximalMatching(g, DynamicMindegreeMaximal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Verify(init); err != nil {
		t.Fatal(err)
	}
	m, err := MaximumMatchingSerial(g, MSBFSGraft, init)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VerifyMaximum(m); err != nil {
		t.Fatal(err)
	}
	if m.Cardinality() < init.Cardinality() {
		t.Fatal("warm start lost cardinality")
	}
}

func TestMaximalAlgorithms(t *testing.T) {
	g := mustRMAT(t, ER, 7, 3, 6)
	for _, alg := range []MaximalAlgorithm{GreedyMaximal, KarpSipserMaximal, DynamicMindegreeMaximal} {
		m, err := MaximalMatching(g, alg, 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Verify(m); err != nil {
			t.Fatalf("alg %d: %v", alg, err)
		}
		if m.Cardinality() == 0 {
			t.Fatalf("alg %d: empty maximal matching", alg)
		}
	}
	if _, err := MaximalMatching(g, MaximalAlgorithm(9), 0); err == nil {
		t.Fatal("unknown maximal algorithm accepted")
	}
}

func TestGraphString(t *testing.T) {
	g, _ := FromEdges(2, 3, [][2]int{{0, 0}})
	if got := g.String(); got != "bipartite graph 2 x 3, 1 edges" {
		t.Fatalf("String = %q", got)
	}
}

func TestThreadsAffectModeledTimeOnly(t *testing.T) {
	g := mustRMAT(t, G500, 8, 4, 8)
	_, st1, err := MaximumMatching(g, Options{Procs: 4, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, st12, err := MaximumMatching(g, Options{Procs: 4, Threads: 12})
	if err != nil {
		t.Fatal(err)
	}
	if st1.Cardinality != st12.Cardinality {
		t.Fatal("threads changed the answer")
	}
	if st12.ModeledSeconds(EdisonXC30) >= st1.ModeledSeconds(EdisonXC30) {
		t.Fatal("12 threads not faster in the model")
	}
}

func TestDirectionOptimizedPublicAPI(t *testing.T) {
	g := mustRMAT(t, ER, 9, 6, 2)
	base, _, err := MaximumMatching(g, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	opt, st, err := MaximumMatching(g, Options{Procs: 4, Direction: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	if base.Cardinality() != opt.Cardinality() {
		t.Fatalf("direction optimization changed |M|: %d vs %d",
			base.Cardinality(), opt.Cardinality())
	}
	if err := g.VerifyMaximum(opt); err != nil {
		t.Fatal(err)
	}
	if st.PushIterations+st.PullIterations != st.Iterations {
		t.Fatalf("direction accounting: %d + %d != %d",
			st.PushIterations, st.PullIterations, st.Iterations)
	}
	if st.PullIterations == 0 {
		t.Fatal("full-frontier first phase should have used pull")
	}
}

func TestDulmageMendelsohnPublicAPI(t *testing.T) {
	g := mustRMAT(t, G500, 9, 4, 17)
	m, _, err := MaximumMatching(g, Options{Procs: 4, Init: DynamicMindegreeInit})
	if err != nil {
		t.Fatal(err)
	}
	btf, err := g.DulmageMendelsohn(m)
	if err != nil {
		t.Fatal(err)
	}
	if btf.StructuralRank() != m.Cardinality() {
		t.Fatalf("structural rank %d != |M| %d", btf.StructuralRank(), m.Cardinality())
	}
	if len(btf.SquareRows) != len(btf.SquareCols) {
		t.Fatal("square block not square")
	}
	if len(btf.RowOrder()) != g.Rows() || len(btf.ColOrder()) != g.Cols() {
		t.Fatal("orders have wrong length")
	}
	// Orders must be permutations.
	seen := make([]bool, g.Rows())
	for _, i := range btf.RowOrder() {
		if seen[i] {
			t.Fatalf("row %d twice in order", i)
		}
		seen[i] = true
	}

	// Rejects non-maximum matchings.
	sub, err := MaximalMatching(g, GreedyMaximal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Cardinality() < m.Cardinality() {
		if _, err := g.DulmageMendelsohn(sub); err == nil {
			t.Fatal("non-maximum matching accepted")
		}
	}
}

func TestTraceOutput(t *testing.T) {
	g := mustRMAT(t, ER, 7, 4, 3)
	var buf bytes.Buffer
	_, st, err := MaximumMatching(g, Options{Procs: 4, Trace: &buf})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != st.Iterations {
		t.Fatalf("%d trace lines for %d iterations", lines, st.Iterations)
	}
	if !strings.Contains(buf.String(), "phase 1 iter 1") {
		t.Fatalf("trace malformed: %q", buf.String())
	}
}

func TestTreeGraftingPublicAPI(t *testing.T) {
	g := mustRMAT(t, G500, 9, 4, 27)
	plain, _, err := MaximumMatching(g, Options{Procs: 4, Init: GreedyInit})
	if err != nil {
		t.Fatal(err)
	}
	graft, _, err := MaximumMatching(g, Options{Procs: 4, Init: GreedyInit, Engine: "bfs-graft"})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cardinality() != graft.Cardinality() {
		t.Fatalf("grafting changed |M|: %d vs %d", plain.Cardinality(), graft.Cardinality())
	}
	if err := g.VerifyMaximum(graft); err != nil {
		t.Fatal(err)
	}
}

func TestHallViolatorPublicAPI(t *testing.T) {
	// Power-law graphs are heavily deficient.
	g, err := TableII("wb-edu", 8)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := MaximumMatching(g, Options{Procs: 4, Init: DynamicMindegreeInit})
	if err != nil {
		t.Fatal(err)
	}
	def := g.Cols() - m.Cardinality()
	s := g.HallViolator(m)
	if def > 0 && len(s) == 0 {
		t.Fatalf("deficiency %d but no Hall violator", def)
	}
	if def == 0 && s != nil {
		t.Fatal("violator on saturated graph")
	}
}

func TestFineBlocksPublicAPI(t *testing.T) {
	g, err := TableII("Freescale1", 8)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := MaximumMatching(g, Options{Procs: 4, Init: DynamicMindegreeInit})
	if err != nil {
		t.Fatal(err)
	}
	btf, err := g.DulmageMendelsohn(m)
	if err != nil {
		t.Fatal(err)
	}
	blocks := g.FineBlocks(m, btf)
	total := 0
	for _, b := range blocks {
		if len(b.Rows) != len(b.Cols) {
			t.Fatal("non-square diagonal block")
		}
		total += len(b.Cols)
	}
	if total != len(btf.SquareCols) {
		t.Fatalf("fine blocks cover %d of %d", total, len(btf.SquareCols))
	}
}

func TestMaximumTransversal(t *testing.T) {
	g, err := TableII("nlpkkt200", 8)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := MaximumMatching(g, Options{Procs: 4, Init: DynamicMindegreeInit})
	if err != nil {
		t.Fatal(err)
	}
	perm := MaximumTransversal(g, m)
	// perm is a permutation.
	seen := make([]bool, g.Rows())
	for _, p := range perm {
		if p < 0 || p >= g.Rows() || seen[p] {
			t.Fatalf("not a permutation: %d", p)
		}
		seen[p] = true
	}
	// Diagonal nonzeros equal the matching cardinality.
	diag := 0
	for i := 0; i < g.Rows(); i++ {
		if perm[i] < g.Cols() && g.HasEdge(i, perm[i]) {
			diag++
		}
	}
	if diag != m.Cardinality() {
		t.Fatalf("diagonal nonzeros %d != |M| %d", diag, m.Cardinality())
	}
}

// TestThreadsUnderRace exercises the intra-rank worker pool with several
// threads; run with -race to catch sharing bugs in the parallel local loops.
func TestThreadsUnderRace(t *testing.T) {
	g := mustRMAT(t, ER, 9, 6, 5)
	m, _, err := MaximumMatching(g, Options{Procs: 4, Threads: 4, Init: DynamicMindegreeInit})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VerifyMaximum(m); err != nil {
		t.Fatal(err)
	}
}

// TestSoakAllVariantsAgree is the wide differential sweep, skipped in
// -short mode: every distributed variant against the oracle on the full
// stand-in suite at a moderate scale.
func TestSoakAllVariantsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	for _, name := range TableIINames() {
		g, err := TableII(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := MaximumMatchingSerial(g, HopcroftKarp, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle.Cardinality()
		for _, opt := range []Options{
			{Procs: 9, Init: DynamicMindegreeInit, Permute: true},
			{Procs: 16, Init: GreedyInit, Engine: "bfs-graft"},
			{Procs: 4, Init: KarpSipserInit, Direction: "auto"},
			{Procs: 16, Init: NoInit, Semiring: RandRoot, Augment: LevelParallel},
		} {
			m, _, err := MaximumMatching(g, opt)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, opt, err)
			}
			if m.Cardinality() != want {
				t.Fatalf("%s %+v: %d, oracle %d", name, opt, m.Cardinality(), want)
			}
		}
	}
}

func TestRectangularGridPublicAPI(t *testing.T) {
	g := mustRMAT(t, ER, 8, 5, 31)
	oracle, _ := MaximumMatchingSerial(g, HopcroftKarp, nil)
	m, st, err := MaximumMatching(g, Options{GridRows: 2, GridCols: 3, Init: GreedyInit})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cardinality() != oracle.Cardinality() {
		t.Fatalf("2x3 grid: %d, oracle %d", m.Cardinality(), oracle.Cardinality())
	}
	if st.Procs != 6 {
		t.Fatalf("procs %d, want 6", st.Procs)
	}
	if _, _, err := MaximumMatching(g, Options{GridCols: 3}); err == nil {
		t.Fatal("half-specified grid accepted")
	}
}

// TestDegenerateShapesMatchOracle runs every initializer through the public
// API on the shapes where blocks and owner ranges go empty: 1×n and n×1
// graphs, graphs with isolated vertices, more ranks than vertices, and 1×p
// and p×1 grids. Each matching must be a valid maximum matching of the
// Hopcroft–Karp oracle's cardinality.
func TestDegenerateShapesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	randomEdges := func(nr, nc, m int) [][2]int {
		edges := make([][2]int, m)
		for k := range edges {
			edges[k] = [2]int{rng.Intn(nr), rng.Intn(nc)}
		}
		return edges
	}
	// isolated keeps a few vertices of a 200×150 graph busy and leaves the
	// rest of both sides without an edge.
	isolated := func() [][2]int {
		var edges [][2]int
		for _, e := range randomEdges(200, 150, 60) {
			edges = append(edges, [2]int{e[0] % 7 * 29, e[1] % 5 * 31})
		}
		return edges
	}
	graphs := []struct {
		name   string
		nr, nc int
		edges  [][2]int
	}{
		{"1xn", 1, 40, randomEdges(1, 40, 15)},
		{"nx1", 40, 1, randomEdges(40, 1, 15)},
		{"1x1", 1, 1, [][2]int{{0, 0}}},
		{"empty", 5, 3, nil},
		{"isolated", 200, 150, isolated()},
		{"sparse-rect", 30, 90, randomEdges(30, 90, 70)},
		{"tiny", 3, 2, [][2]int{{0, 0}, {1, 0}, {2, 1}}},
	}
	grids := [][2]int{{1, 1}, {1, 4}, {4, 1}, {1, 7}, {6, 1}, {4, 4}, {3, 5}}
	for _, gc := range graphs {
		g, err := FromEdges(gc.nr, gc.nc, gc.edges)
		if err != nil {
			t.Fatal(err)
		}
		want := matching.HopcroftKarp(g.a, nil).Cardinality()
		for _, grid := range grids {
			for _, init := range []Initializer{NoInit, GreedyInit, KarpSipserInit, DynamicMindegreeInit} {
				for _, threads := range []int{1, 3} {
					name := fmt.Sprintf("%s/%dx%d/%v/t%d", gc.name, grid[0], grid[1], init, threads)
					m, _, err := MaximumMatching(g, Options{GridRows: grid[0], GridCols: grid[1], Init: init, Threads: threads})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := g.VerifyMaximum(m); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if m.Cardinality() != want {
						t.Fatalf("%s: %d, oracle %d", name, m.Cardinality(), want)
					}
				}
			}
		}
	}
}

// TestEntryPointsRejectUnknownOptions pins that every public entry point
// refuses an option value the schema has no name for, instead of solving
// under a silently substituted default.
func TestEntryPointsRejectUnknownOptions(t *testing.T) {
	g := mustRMAT(t, ER, 6, 4, 3)
	dg, err := Distribute(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer dg.Close()
	onAllEndpoints := func(opts Options) error {
		trs, err := LoopbackTCP(4)
		if err != nil {
			t.Fatal(err)
		}
		errs := make([]error, len(trs))
		var wg sync.WaitGroup
		for i, tr := range trs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _, errs[i] = MaximumMatchingOn(tr, g, opts)
				tr.Close()
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err == nil {
				return nil // an endpoint accepted the options
			}
		}
		return errs[0]
	}
	entries := []struct {
		name  string
		solve func(Options) error
	}{
		{"MaximumMatching", func(o Options) error { _, _, err := MaximumMatching(g, o); return err }},
		{"DistributedGraph.MaximumMatching", func(o Options) error { _, _, err := dg.MaximumMatching(o); return err }},
		{"SolveRecoverable", func(o Options) error { _, _, _, err := dg.SolveRecoverable(o, RecoveryPolicy{}); return err }},
		{"MaximumMatchingOn", onAllEndpoints},
		{"MaximalMatchingDistributed", func(o Options) error {
			_, _, err := dg.MaximalMatchingDistributed(o.Init, 1)
			return err
		}},
	}
	for _, bad := range []Options{
		{Procs: 4, Init: Initializer(9)},
		{Procs: 4, Init: GreedyInit, Direction: "pul"},
		{Procs: 4, Init: GreedyInit, Engine: "graft"},
		{Procs: 4, Init: GreedyInit, Semiring: Semiring(9)},
		{Procs: 4, Init: GreedyInit, Augment: Augmentation(9)},
		{Procs: 3, Init: GreedyInit},
	} {
		for _, e := range entries {
			if e.name == "MaximalMatchingDistributed" && bad.Init == GreedyInit {
				continue // takes only an initializer
			}
			if bad.Procs != 4 && e.name != "MaximumMatching" && e.name != "MaximumMatchingOn" {
				continue // the rank count is fixed at Distribute time
			}
			if err := e.solve(bad); err == nil {
				t.Errorf("%s accepted %+v", e.name, bad)
			}
		}
	}
}
