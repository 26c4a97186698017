package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"mcmdist/internal/core"
)

// Experiments are run at small scale here; the assertions target the
// paper's qualitative claims (shapes), not absolute numbers.

// testConfig is cmd/bench's threading (the paper's 12 threads per rank) on
// procs ranks.
func testConfig(procs int) core.Config { return core.Config{Procs: procs, Threads: 12} }

func TestTable2Shape(t *testing.T) {
	var buf bytes.Buffer
	rows := Table2(&buf, 7)
	if len(rows) != 13 {
		t.Fatalf("%d rows, want 13", len(rows))
	}
	for _, r := range rows {
		if r.MCMCard < r.MaximalCard {
			t.Errorf("%s: MCM %d < maximal %d", r.Name, r.MCMCard, r.MaximalCard)
		}
		if 2*r.MaximalCard < r.MCMCard {
			t.Errorf("%s: maximal below 1/2-approximation", r.Name)
		}
		if r.UnmatchedCols != r.Cols-r.MaximalCard {
			t.Errorf("%s: unmatched bookkeeping wrong", r.Name)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "road_usa") || !strings.Contains(out, "nnz") {
		t.Error("table output malformed")
	}
}

func TestFig3KarpSipserSlower(t *testing.T) {
	rows := Fig3(io.Discard, testConfig(4), 7)
	if len(rows) != len(fig3Matrices)*3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Paper claim: on distributed memory, Karp-Sipser's initializer time
	// exceeds greedy's on these graphs (Section VI-A).
	byKey := map[string]Fig3Row{}
	for _, r := range rows {
		byKey[r.Matrix+"/"+r.Init.String()] = r
		if r.FinalCard <= 0 {
			t.Fatalf("%s/%v: empty final matching", r.Matrix, r.Init)
		}
	}
	slower := 0
	for _, m := range fig3Matrices {
		ks := byKey[m+"/karpsipser"].InitTime
		gr := byKey[m+"/greedy"].InitTime
		if ks > gr {
			slower++
		}
	}
	if slower < len(fig3Matrices)-1 {
		t.Errorf("Karp-Sipser slower on only %d/%d matrices; paper expects it to be the slow one",
			slower, len(fig3Matrices))
	}
}

func TestFig4SpeedupsGrow(t *testing.T) {
	rows := Fig4(io.Discard, testConfig(4), 12, []int{4, 16, 64}, []string{"road_usa", "amazon-2008"})
	for _, r := range rows {
		last := r.Points[len(r.Points)-1]
		if last.Speedup <= 1 {
			t.Errorf("%s: no speedup at p=%d (%.2fx)", r.Matrix, last.Procs, last.Speedup)
		}
		if r.Points[0].Speedup != 1 {
			t.Errorf("%s: baseline speedup %.2f != 1", r.Matrix, r.Points[0].Speedup)
		}
	}
}

func TestFig5FractionsSumToOne(t *testing.T) {
	rows := Fig5(io.Discard, testConfig(4), 9, []int{4, 16})
	for _, r := range rows {
		sum := 0.0
		for _, f := range r.Fraction {
			sum += f
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s p=%d: fractions sum %.3f", r.Matrix, r.Procs, sum)
		}
	}
	// SpMV should dominate at low concurrency (the paper's observation).
	for _, r := range rows {
		if r.Procs == 4 && r.Fraction["spmv"]+r.Fraction["init"] < 0.2 {
			t.Errorf("%s p=4: compute share %.2f suspiciously low",
				r.Matrix, r.Fraction["spmv"]+r.Fraction["init"])
		}
	}
}

func TestFig6SyntheticScales(t *testing.T) {
	rows := Fig6(io.Discard, testConfig(4), []int{11}, []int{4, 16, 64})
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if last := r.Points[len(r.Points)-1]; last.Speedup <= 1 {
			t.Errorf("%s-%d: no speedup (%.2fx)", r.Class, r.Scale, last.Speedup)
		}
	}
}

func TestFig7HybridWins(t *testing.T) {
	rows := Fig7(io.Discard, testConfig(4), 11, []int{48, 192})
	for _, r := range rows {
		if r.HybridTime >= r.FlatTime {
			t.Errorf("%s cores=%d: hybrid %.4g >= flat %.4g — multithreading should win",
				r.Matrix, r.Cores, r.HybridTime, r.FlatTime)
		}
	}
}

func TestFig8PruningHelpsSomewhere(t *testing.T) {
	rows := Fig8(io.Discard, testConfig(4), 7, []string{"road_usa", "delaunay_n24", "kkt_power"})
	helped := 0
	for _, r := range rows {
		if r.WithPrune <= 0 || r.WithoutPrune <= 0 {
			t.Fatalf("%s: nonpositive times", r.Matrix)
		}
		if r.ReductionPct > 0 {
			helped++
		}
	}
	if helped == 0 {
		t.Error("pruning helped nowhere; paper reports 10-65% reductions on most matrices")
	}
}

func TestFig9MonotoneInEdges(t *testing.T) {
	rows := Fig9(io.Discard, []int{1 << 18, 1 << 20, 1 << 24}, 2048, 4)
	for i := 1; i < len(rows); i++ {
		if rows[i].Modeled <= rows[i-1].Modeled {
			t.Errorf("gather cost not monotone: %v", rows)
		}
	}
	if rows[0].Measured <= 0 {
		t.Error("small point not measured")
	}
}

func TestAugmentCrossoverExists(t *testing.T) {
	rows := AugmentCrossover(io.Discard, testConfig(4), 8, []int{1, 4, 256, 1024})
	// Path-parallel must win for very few paths (its whole reason to exist)
	// and level-parallel must win once k far exceeds the p²-scaled
	// crossover, reproducing the Section IV-B analysis qualitatively.
	if !rows[0].PathWins {
		t.Errorf("k=1: level-parallel won (%.4g vs %.4g); RMA walk should be cheaper",
			rows[0].LevelSeconds, rows[0].PathSeconds)
	}
	last := rows[len(rows)-1]
	if last.PathWins {
		t.Errorf("k=%d: path-parallel still wins (%.4g vs %.4g); expected a crossover",
			last.K, last.LevelSeconds, last.PathSeconds)
	}
	for _, r := range rows {
		if r.PaperCriteria != (r.K < 2*4*4) {
			t.Errorf("criterion bookkeeping wrong at k=%d", r.K)
		}
	}
}

func TestDirectionAblationReducesWork(t *testing.T) {
	rows := DirectionAblation(io.Discard, testConfig(4), 9, []string{"ljournal-2008", "cage15"})
	for _, r := range rows {
		if r.PullIters == 0 {
			t.Errorf("%s: pull never used from an empty initial matching", r.Matrix)
		}
	}
	// The optimization must reduce SpMV work on both graphs: the skewed
	// graph benefits from the full-frontier first phase, and the hit-rate
	// feedback must prevent regressions once frontiers turn structurally
	// deficient.
	for _, r := range rows {
		if r.ReductionPct <= 0 {
			t.Errorf("%s: direction optimization increased SpMV work by %.1f%%",
				r.Matrix, -r.ReductionPct)
		}
	}
}

func TestGridShapeSquareWins(t *testing.T) {
	rows := GridShapeAblation(io.Discard, 11, 16)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	square := rows[2]
	for _, r := range rows[:2] {
		if square.MaxWords >= r.MaxWords {
			t.Errorf("square grid words %d not below %dx%d's %d",
				square.MaxWords, r.PR, r.PC, r.MaxWords)
		}
	}
}

func TestInitQualityOrdering(t *testing.T) {
	rows := InitQuality(io.Discard, 10, nil)
	if len(rows) != 13 {
		t.Fatalf("%d rows", len(rows))
	}
	ksWins, dmdWins, hard := 0, 0, 0
	for _, r := range rows {
		for alg, ratio := range r.Ratio {
			if ratio < 0.5 || ratio > 1.0001 {
				t.Errorf("%s/%s: ratio %.3f outside [1/2, 1]", r.Matrix, alg, ratio)
			}
		}
		// The claim only bites on matrices where greedy is not already
		// (near-)optimal: on those hard cases Karp-Sipser's degree-1 rule
		// and mindegree's ordering must pay off (Section VI-A).
		if r.Ratio["greedy"] < 0.999 {
			hard++
			if r.Ratio["karp-sipser"] > r.Ratio["greedy"] {
				ksWins++
			}
			if r.Ratio["dynmindegree"] > r.Ratio["greedy"] {
				dmdWins++
			}
		}
	}
	if hard == 0 {
		t.Fatal("no hard matrices in the suite — stand-ins too easy")
	}
	if ksWins < hard {
		t.Errorf("Karp-Sipser beat greedy on only %d/%d hard matrices", ksWins, hard)
	}
	if dmdWins < hard {
		t.Errorf("dynmindegree beat greedy on only %d/%d hard matrices", dmdWins, hard)
	}
}

func TestFrontierDynamicsShrink(t *testing.T) {
	rows := FrontierDynamics(io.Discard, "road_usa", 10, 4)
	if len(rows) < 3 {
		t.Fatalf("only %d iterations traced", len(rows))
	}
	// The intro's claim: frontier size varies dramatically. The largest
	// frontier must dwarf the smallest nonzero one.
	minF, maxF := rows[0].FrontierSize, rows[0].FrontierSize
	for _, r := range rows {
		if r.FrontierSize < minF {
			minF = r.FrontierSize
		}
		if r.FrontierSize > maxF {
			maxF = r.FrontierSize
		}
	}
	if maxF < 4*minF {
		t.Errorf("frontier sizes stayed within [%d,%d]: not 'extremely dynamic'", minF, maxF)
	}
	// Later phases start from fewer unmatched columns: the first iteration
	// of the last phase must be smaller than the first iteration overall.
	firstOfLastPhase := -1
	lastPhase := rows[len(rows)-1].Phase
	for _, r := range rows {
		if r.Phase == lastPhase {
			firstOfLastPhase = r.FrontierSize
			break
		}
	}
	if lastPhase > 1 && firstOfLastPhase >= rows[0].FrontierSize {
		t.Errorf("phase %d starts with frontier %d >= phase 1's %d",
			lastPhase, firstOfLastPhase, rows[0].FrontierSize)
	}
}

func TestBalanceAblationPermutationHelps(t *testing.T) {
	rows := BalanceAblation(io.Discard, testConfig(16), 11, []string{"road_usa", "cage15"})
	for _, r := range rows {
		if r.ImbalancePermuted < 1 || r.ImbalanceUnperm < 1 {
			t.Fatalf("%s: imbalance below 1 (%f, %f)", r.Matrix, r.ImbalanceUnperm, r.ImbalancePermuted)
		}
		// Locality-ordered matrices must balance markedly better after the
		// random permutation (the Section IV-A rationale).
		if r.ImbalancePermuted >= r.ImbalanceUnperm {
			t.Errorf("%s: permutation did not improve imbalance (%.2f -> %.2f)",
				r.Matrix, r.ImbalanceUnperm, r.ImbalancePermuted)
		}
	}
}

func TestSingleVsMultiSourceGap(t *testing.T) {
	rows := SingleVsMultiSource(io.Discard, testConfig(4), 10, []string{"road_usa"})
	r := rows[0]
	if r.SSIters <= r.MSIters {
		t.Fatalf("SS iters %d not above MS %d", r.SSIters, r.MSIters)
	}
	if r.SSModeled <= r.MSModeled {
		t.Fatalf("SS modeled %.4g not above MS %.4g", r.SSModeled, r.MSModeled)
	}
}

func TestTreeBalanceRandRootBetter(t *testing.T) {
	rows := TreeBalance(io.Discard, 10, 4, []string{"ljournal-2008"})
	byOp := map[string]TreeBalanceRow{}
	for _, r := range rows {
		byOp[r.Semiring] = r
	}
	// minParent funnels ties toward low-index roots; randRoot must spread
	// them more evenly (smaller max/mean ratio), per the paper's guidance.
	if byOp["randroot"].Balance >= byOp["minparent"].Balance {
		t.Errorf("randRoot balance %.2f not better than minParent %.2f",
			byOp["randroot"].Balance, byOp["minparent"].Balance)
	}
}
