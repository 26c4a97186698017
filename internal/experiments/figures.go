package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"mcmdist/internal/core"
	"mcmdist/internal/costmodel"
	"mcmdist/internal/dvec"
	"mcmdist/internal/matching"
	"mcmdist/internal/mpi"
	"mcmdist/internal/rmat"
	"mcmdist/internal/spmat"
)

// ScalePoint is one point of a strong-scaling curve.
type ScalePoint struct {
	Procs   int
	Seconds float64 // modeled Edison seconds
	Speedup float64 // vs. the smallest process count
}

// Fig4Row is one matrix's strong-scaling curve (Fig. 4).
type Fig4Row struct {
	Matrix string
	Points []ScalePoint
}

// DefaultProcs is the simulated process-count sweep used by the scaling
// figures. The paper sweeps 24..2048 cores with 12 threads per rank and a
// 2x2 process grid at its 24-core baseline, so the sweep starts at p=4 and
// rank count p corresponds to roughly 12*p cores.
var DefaultProcs = []int{4, 16, 64}

// Fig4 regenerates the strong-scaling experiment of Fig. 4 across the
// Table II suite: modeled time and speedup per process count.
func Fig4(w io.Writer, cfg core.Config, scale int, procs []int, names []string) []Fig4Row {
	if procs == nil {
		procs = DefaultProcs
	}
	if names == nil {
		names = allSuiteNames()
	}
	var rows []Fig4Row
	for _, name := range names {
		a := suiteMatrix(name, scale)
		row := Fig4Row{Matrix: name}
		var base float64
		for _, p := range procs {
			res := run(cfg, a, core.Config{Procs: p, Init: core.InitDynMinDegree, Permute: true, Seed: 7})
			t := modeledTime(res, cfg.Threads)
			if base == 0 {
				base = t
			}
			row.Points = append(row.Points, ScalePoint{Procs: p, Seconds: t, Speedup: base / t})
		}
		rows = append(rows, row)
	}
	tw := newTab(w)
	fmt.Fprintf(tw, "Fig 4 strong scaling (t=%d)\t", cfg.Threads)
	for _, p := range procs {
		fmt.Fprintf(tw, "p=%d\t", p)
	}
	fmt.Fprintln(tw, "speedup(max-p)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t", r.Matrix)
		for _, pt := range r.Points {
			fmt.Fprintf(tw, "%.4gs\t", pt.Seconds)
		}
		fmt.Fprintf(tw, "%.2fx\n", r.Points[len(r.Points)-1].Speedup)
	}
	tw.Flush()
	return rows
}

func allSuiteNames() []string {
	var names []string
	for _, r := range Table2(io.Discard, 6) {
		names = append(names, r.Name)
	}
	return names
}

// Fig5Row is one (matrix, procs) runtime breakdown (Fig. 5).
type Fig5Row struct {
	Matrix   string
	Procs    int
	Fraction map[string]float64 // category -> fraction of modeled time
	Seconds  map[string]float64 // category -> modeled seconds
}

// Fig5Matrices are the four representative matrices of the figure.
var Fig5Matrices = []string{"road_usa", "delaunay_n24", "ljournal-2008", "amazon-2008"}

// Fig5 regenerates the runtime-breakdown experiment: the share of SpMV,
// INVERT, PRUNE, SELECT and AUGMENT in total modeled time as the process
// count grows.
func Fig5(w io.Writer, cfg core.Config, scale int, procs []int) []Fig5Row {
	if procs == nil {
		procs = DefaultProcs
	}
	var rows []Fig5Row
	for _, name := range Fig5Matrices {
		a := suiteMatrix(name, scale)
		for _, p := range procs {
			res := run(cfg, a, core.Config{Procs: p, Init: core.InitDynMinDegree, Permute: true, Seed: 7})
			bd := Model.Breakdown(meterByOp(res), cfg.Threads)
			total := 0.0
			for _, v := range bd {
				total += v
			}
			frac := make(map[string]float64, len(bd))
			for k, v := range bd {
				if total > 0 {
					frac[k] = v / total
				}
			}
			rows = append(rows, Fig5Row{Matrix: name, Procs: p, Fraction: frac, Seconds: bd})
		}
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "Fig 5 breakdown\tp\tspmv\tinvert\tprune\tselect\taugment\tinit\tother")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d", r.Matrix, r.Procs)
		for _, k := range []string{"spmv", "invert", "prune", "select", "augment", "init", "other"} {
			fmt.Fprintf(tw, "\t%.1f%%", 100*r.Fraction[k])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	return rows
}

// Fig6Row is one synthetic matrix's scaling curve (Fig. 6).
type Fig6Row struct {
	Class  string
	Scale  int
	Points []ScalePoint
}

// Fig6 regenerates the synthetic strong-scaling experiment on ER, G500 and
// SSCA matrices.
func Fig6(w io.Writer, cfg core.Config, scales []int, procs []int) []Fig6Row {
	if procs == nil {
		procs = DefaultProcs
	}
	classes := []struct {
		name string
		p    rmat.Params
		ef   int
	}{
		{"ER", rmat.ER, 8},
		{"G500", rmat.G500, 8},
		{"SSCA", rmat.SSCA, 8},
	}
	var rows []Fig6Row
	for _, cl := range classes {
		for _, sc := range scales {
			a := rmat.MustGenerate(cl.p, sc, cl.ef, 17)
			row := Fig6Row{Class: cl.name, Scale: sc}
			var base float64
			for _, p := range procs {
				res := run(cfg, a, core.Config{Procs: p, Init: core.InitDynMinDegree, Permute: true, Seed: 3})
				t := modeledTime(res, cfg.Threads)
				if base == 0 {
					base = t
				}
				row.Points = append(row.Points, ScalePoint{Procs: p, Seconds: t, Speedup: base / t})
			}
			rows = append(rows, row)
		}
	}
	tw := newTab(w)
	fmt.Fprint(tw, "Fig 6 synthetic scaling\t")
	for _, p := range procs {
		fmt.Fprintf(tw, "p=%d\t", p)
	}
	fmt.Fprintln(tw, "speedup(max-p)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s-%d\t", r.Class, r.Scale)
		for _, pt := range r.Points {
			fmt.Fprintf(tw, "%.4gs\t", pt.Seconds)
		}
		fmt.Fprintf(tw, "%.2fx\n", r.Points[len(r.Points)-1].Speedup)
	}
	tw.Flush()
	return rows
}

// Fig7Row compares flat (1 thread per rank) and hybrid (12 threads per
// rank) executions at the same total core budget, both under the alpha-beta
// model and on the host wall clock with real worker pools.
type Fig7Row struct {
	Matrix     string
	Cores      int
	FlatTime   float64 // modeled: p = cores ranks, t = 1
	HybridTime float64 // modeled: p = cores/12 ranks, t = 12 (nearest square)
	// MeasuredFlat and MeasuredHybrid are host wall-clock seconds of the
	// same two runs. Unlike the modeled columns these include simulation
	// overhead and are bounded by the host's real core count (HostCPUs):
	// the hybrid run only pulls ahead on the wall clock when the machine
	// has cores for its worker pools.
	MeasuredFlat   float64
	MeasuredHybrid float64
	HostCPUs       int
	// Utilization is the hybrid run's measured worker-pool utilization
	// (busy time / team capacity over fanned regions), max across ranks.
	Utilization float64
}

// Fig7 regenerates the multithreading experiment: at a fixed core budget,
// the hybrid configuration (fewer ranks, cfg.Threads each) beats flat MPI
// because the latency and synchronization terms grow with the rank count.
// The effect is a latency phenomenon, so the modeled columns use the
// unscaled Edison latency constants (costmodel.Edison) rather than the
// size-rescaled Model used by the bandwidth-shaped scaling figures. Since
// the worker pools are real, the measured columns report what the host
// wall clock actually saw for the same flat and hybrid configurations.
func Fig7(w io.Writer, cfg core.Config, scale int, coreBudgets []int) []Fig7Row {
	if coreBudgets == nil {
		coreBudgets = []int{48, 192}
	}
	var rows []Fig7Row
	for _, name := range []string{"road_usa", "amazon-2008"} {
		a := suiteMatrix(name, scale)
		for _, cores := range coreBudgets {
			flatP := nearestSquare(cores)
			hybP := nearestSquare(cores / cfg.Threads)
			start := time.Now()
			flat := run(cfg, a, core.Config{Procs: flatP, Threads: 1, Init: core.InitDynMinDegree, Permute: true, Seed: 9})
			measFlat := time.Since(start).Seconds()
			start = time.Now()
			hyb := run(cfg, a, core.Config{Procs: hybP, Threads: cfg.Threads, Init: core.InitDynMinDegree, Permute: true, Seed: 9})
			measHyb := time.Since(start).Seconds()
			rows = append(rows, Fig7Row{
				Matrix:         name,
				Cores:          cores,
				FlatTime:       costmodel.Edison.CriticalTime(flat.PerRank, 1),
				HybridTime:     costmodel.Edison.CriticalTime(hyb.PerRank, cfg.Threads),
				MeasuredFlat:   measFlat,
				MeasuredHybrid: measHyb,
				HostCPUs:       runtime.NumCPU(),
				Utilization:    hyb.Stats.Threading.Utilization(),
			})
		}
	}
	tw := newTab(w)
	fmt.Fprintf(tw, "Fig 7 hybrid vs flat\tcores\tmodeled flat(t=1)\tmodeled hybrid(t=%d)\tmodeled-speedup\tmeasured flat\tmeasured hybrid\tmeasured-speedup\tpool-util\n", cfg.Threads)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.4gs\t%.4gs\t%.2fx\t%.4gs\t%.4gs\t%.2fx\t%.0f%%\n",
			r.Matrix, r.Cores, r.FlatTime, r.HybridTime, r.FlatTime/r.HybridTime,
			r.MeasuredFlat, r.MeasuredHybrid, r.MeasuredFlat/r.MeasuredHybrid,
			100*r.Utilization)
	}
	fmt.Fprintf(tw, "(measured on %d host CPUs; hybrid wall-clock gains need >= t real cores)\n", runtime.NumCPU())
	tw.Flush()
	return rows
}

func nearestSquare(p int) int {
	if p < 1 {
		return 1
	}
	s := 1
	for (s+1)*(s+1) <= p {
		s++
	}
	return s * s
}

// Fig8Row is one matrix's pruning ablation (Fig. 8).
type Fig8Row struct {
	Matrix       string
	WithPrune    float64 // modeled seconds
	WithoutPrune float64
	ReductionPct float64 // 100 * (without - with) / without
}

// Fig8 regenerates the pruning experiment: percentage of MCM runtime
// removed by pruning satisfied alternating trees, per matrix, on cfg.Procs
// ranks.
func Fig8(w io.Writer, cfg core.Config, scale int, names []string) []Fig8Row {
	if names == nil {
		names = allSuiteNames()
	}
	var rows []Fig8Row
	for _, name := range names {
		a := suiteMatrix(name, scale)
		on := run(cfg, a, core.Config{Procs: cfg.Procs, Init: core.InitDynMinDegree, Permute: true, Seed: 11})
		off := run(cfg, a, core.Config{Procs: cfg.Procs, Init: core.InitDynMinDegree, Permute: true, Seed: 11, DisablePrune: true})
		tOn := modeledTime(on, cfg.Threads)
		tOff := modeledTime(off, cfg.Threads)
		red := 0.0
		if tOff > 0 {
			red = 100 * (tOff - tOn) / tOff
		}
		rows = append(rows, Fig8Row{Matrix: name, WithPrune: tOn, WithoutPrune: tOff, ReductionPct: red})
	}
	tw := newTab(w)
	fmt.Fprintf(tw, "Fig 8 pruning (p=%d)\twith(s)\twithout(s)\treduction\n", cfg.Procs)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.4g\t%.4g\t%.1f%%\n", r.Matrix, r.WithPrune, r.WithoutPrune, r.ReductionPct)
	}
	tw.Flush()
	return rows
}

// Fig9Row is one point of the gather/scatter cost curve (Fig. 9).
type Fig9Row struct {
	Edges    int
	Modeled  float64 // Edison-modeled seconds on modelProcs ranks
	Measured float64 // measured seconds on a small in-process run (0 if skipped)
}

// Fig9 regenerates the Section VI-E experiment: the cost of gathering a
// distributed graph onto one rank (to run a shared-memory matcher) and
// scattering the mate vectors back, versus the number of edges. The large
// points use the alpha-beta model at the paper's 2048 ranks; small points
// are additionally measured on a live simulated run with measureProcs
// ranks to validate the model's shape.
func Fig9(w io.Writer, edgeCounts []int, modelProcs, measureProcs int) []Fig9Row {
	if edgeCounts == nil {
		edgeCounts = []int{1 << 20, 1 << 23, 1 << 26, 1 << 29, 900_000_000}
	}
	var rows []Fig9Row
	for _, m := range edgeCounts {
		n := m / 8
		row := Fig9Row{Edges: m, Modeled: Model.GatherScatter(m, n, modelProcs)}
		if measureProcs > 1 && m <= 1<<22 {
			row.Measured = measureGatherScatter(m, n, measureProcs)
		}
		rows = append(rows, row)
	}
	tw := newTab(w)
	fmt.Fprintf(tw, "Fig 9 gather+scatter (model p=%d)\tmodeled(s)\tmeasured-small(s)\n", modelProcs)
	for _, r := range rows {
		if r.Measured > 0 {
			fmt.Fprintf(tw, "%d\t%.4g\t%.4g\n", r.Edges, r.Modeled, r.Measured)
		} else {
			fmt.Fprintf(tw, "%d\t%.4g\t-\n", r.Edges, r.Modeled)
		}
	}
	tw.Flush()
	return rows
}

// measureGatherScatter times an actual Gatherv of m edges (2 words each)
// plus a Scatterv of mate vectors on p simulated ranks, returning the
// Edison-modeled time of the measured communication meters.
func measureGatherScatter(m, n, p int) float64 {
	perRank := m / p
	w, err := mpi.Run(p, func(c *mpi.Comm) error {
		edges := make([]int64, 2*perRank)
		c.Gatherv(0, edges)
		var parts [][]int64
		if c.Rank() == 0 {
			parts = make([][]int64, p)
			for d := range parts {
				parts[d] = make([]int64, 2*n/p)
			}
		}
		c.Scatterv(0, parts)
		return nil
	})
	if err != nil {
		panic(err)
	}
	return Model.CriticalTime(metersOf(w, p), 1)
}

func metersOf(w *mpi.World, p int) []mpi.Meter {
	out := make([]mpi.Meter, p)
	for r := 0; r < p; r++ {
		out[r] = w.RankMeter(r)
	}
	return out
}

// CrossoverRow compares the two augmentation variants at one path count k
// (the Section IV-B analysis: path-parallel wins while k < 2p²).
type CrossoverRow struct {
	K             int
	LevelSeconds  float64
	PathSeconds   float64
	PathWins      bool
	PaperCriteria bool // k < 2p²
}

// AugmentCrossover measures both augmentation variants on ladder-like
// graphs engineered to produce k vertex-disjoint augmenting paths of length
// pathLen, on cfg.Procs ranks, and reports the modeled times next to the paper's
// switching criterion. Like Fig. 7, the crossover is a latency phenomenon
// (level-parallel pays alpha*p per level, path-parallel alpha*k*h/p per
// rank), so it is evaluated under the unscaled Edison constants.
func AugmentCrossover(w io.Writer, cfg core.Config, pathLen int, ks []int) []CrossoverRow {
	procs := cfg.Procs
	if ks == nil {
		ks = []int{1, 4, 16, 64, 256}
	}
	var rows []CrossoverRow
	for _, k := range ks {
		a, init := ladderForest(k, pathLen)
		lvl := runAugmentOnly(cfg, a, init, core.AugmentLevelParallel)
		pth := runAugmentOnly(cfg, a, init, core.AugmentPathParallel)
		rows = append(rows, CrossoverRow{
			K:             k,
			LevelSeconds:  lvl,
			PathSeconds:   pth,
			PathWins:      pth < lvl,
			PaperCriteria: k < 2*procs*procs,
		})
	}
	tw := newTab(w)
	fmt.Fprintf(tw, "Augment crossover (p=%d, len=%d)\tlevel(s)\tpath(s)\twinner\tk<2p^2\n", procs, pathLen)
	for _, r := range rows {
		winner := "level"
		if r.PathWins {
			winner = "path"
		}
		fmt.Fprintf(tw, "k=%d\t%.4g\t%.4g\t%s\t%v\n", r.K, r.LevelSeconds, r.PathSeconds, winner, r.PaperCriteria)
	}
	tw.Flush()
	return rows
}

// ladderForest builds k disjoint ladders each with one augmenting path of
// the given length, plus the initial matching that forces those paths.
func ladderForest(k, pathLen int) (*spmat.CSC, *matching.Matching) {
	per := pathLen
	n := k * per
	coo := spmat.NewCOO(n, n)
	m := matching.NewMatching(n, n)
	for c := 0; c < k; c++ {
		base := c * per
		for i := 0; i < per; i++ {
			coo.Add(base+i, base+i)
			if i+1 < per {
				coo.Add(base+i+1, base+i)
				m.Match(base+i+1, base+i)
			}
		}
	}
	return coo.ToCSC(), m
}

// runAugmentOnly runs MCM with a fixed augmentation variant starting from
// the given matching and returns the modeled seconds attributed to the
// augment category.
func runAugmentOnly(cfg core.Config, a *spmat.CSC, init *matching.Matching, mode core.AugmentMode) float64 {
	side := nearestSquareSide(cfg.Procs)
	blocks := spmat.DistributeRanks(a, side, side, nil)
	stats := make([]*core.Stats, side*side)
	err := core.RunDistributed(side, a.NRows, a.NCols, blocks,
		core.Config{Procs: side * side, Augment: mode}, func(s *core.Solver) error {
			mater := denseFromGlobal(s.RowL, init.MateR)
			matec := denseFromGlobal(s.ColL, init.MateC)
			if err := s.RunEngineByName(core.EngineBFS, mater, matec); err != nil {
				return err
			}
			stats[s.G.World.Rank()] = s.Stats
			return nil
		})
	if err != nil {
		panic(err)
	}
	merged := stats[0]
	for _, st := range stats[1:] {
		merged.MergeMax(st)
	}
	return costmodel.Edison.Time(merged.Meter[core.OpAugment], cfg.Threads)
}

func nearestSquareSide(p int) int {
	s := 1
	for (s+1)*(s+1) <= p {
		s++
	}
	return s
}

// denseFromGlobal builds a rank's dense piece from a replicated global
// mate vector.
func denseFromGlobal(l dvec.Layout, global []int64) *dvec.Dense {
	return dvec.NewDenseFrom(l, global)
}

// DirectionRow is one matrix's direction-optimization ablation.
type DirectionRow struct {
	Matrix       string
	PushWork     int64 // total SpMV work units, push-only
	OptWork      int64 // total SpMV work units, direction-optimizing
	PullIters    int
	PushIters    int
	ReductionPct float64
}

// DirectionAblation measures the bottom-up BFS extension (the paper's
// stated future work, implemented here): total SpMV edge-traversal work
// with static push and the per-iteration auto direction, starting from the
// empty matching so the first phase runs with a full frontier where pull
// pays off most.
func DirectionAblation(w io.Writer, cfg core.Config, scale int, names []string) []DirectionRow {
	if names == nil {
		names = []string{"ljournal-2008", "wikipedia-20070206", "cage15", "road_usa"}
	}
	var rows []DirectionRow
	for _, name := range names {
		a := suiteMatrix(name, scale)
		push := run(cfg, a, core.Config{Procs: cfg.Procs, Init: core.InitNone, Permute: true, Seed: 13})
		opt := run(cfg, a, core.Config{Procs: cfg.Procs, Init: core.InitNone, Permute: true, Seed: 13,
			Direction: core.DirectionAuto})
		if push.Stats.Cardinality != opt.Stats.Cardinality {
			panic("direction optimization changed the cardinality")
		}
		pw := push.Stats.Meter[core.OpSpMV].Work
		ow := opt.Stats.Meter[core.OpSpMV].Work
		red := 0.0
		if pw > 0 {
			red = 100 * float64(pw-ow) / float64(pw)
		}
		rows = append(rows, DirectionRow{
			Matrix:       name,
			PushWork:     pw,
			OptWork:      ow,
			PullIters:    opt.Stats.PullIterations,
			PushIters:    opt.Stats.PushIterations,
			ReductionPct: red,
		})
	}
	tw := newTab(w)
	fmt.Fprintf(tw, "Direction optimization (p=%d)\tpush-work\topt-work\tpull/push iters\twork-reduction\n", cfg.Procs)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d/%d\t%.1f%%\n",
			r.Matrix, r.PushWork, r.OptWork, r.PullIters, r.PushIters, r.ReductionPct)
	}
	tw.Flush()
	return rows
}

// GraftRow is one matrix's tree-grafting ablation.
type GraftRow struct {
	Matrix       string
	PlainWork    int64 // total SpMV work, Algorithm 2
	GraftWork    int64 // total SpMV work, tree-grafting variant
	PlainIters   int
	GraftIters   int
	ReleasedRows int
	ReductionPct float64
}

// GraftAblation measures the distributed tree-grafting extension (the
// paper's stated future work, implemented as the bfs-graft engine): total
// SpMV edge traversals of the plain Algorithm 2 versus the grafted variant,
// starting from a greedy matching so several augmenting phases run.
func GraftAblation(w io.Writer, cfg core.Config, scale int, names []string) []GraftRow {
	if names == nil {
		names = []string{"road_usa", "delaunay_n24", "amazon-2008", "ljournal-2008"}
	}
	var rows []GraftRow
	for _, name := range names {
		a := suiteMatrix(name, scale)
		plain := run(cfg, a, core.Config{Procs: cfg.Procs, Init: core.InitGreedy, Permute: true, Seed: 19})
		graft := run(cfg, a, core.Config{Procs: cfg.Procs, Init: core.InitGreedy, Permute: true, Seed: 19,
			Engine: core.EngineBFSGraft})
		if plain.Stats.Cardinality != graft.Stats.Cardinality {
			panic("tree grafting changed the cardinality")
		}
		pw := plain.Stats.Meter[core.OpSpMV].Work
		gw := graft.Stats.Meter[core.OpSpMV].Work
		red := 0.0
		if pw > 0 {
			red = 100 * float64(pw-gw) / float64(pw)
		}
		rows = append(rows, GraftRow{
			Matrix:       name,
			PlainWork:    pw,
			GraftWork:    gw,
			PlainIters:   plain.Stats.Iterations,
			GraftIters:   graft.Stats.Iterations,
			ReleasedRows: graft.Stats.GraftReleasedRows,
			ReductionPct: red,
		})
	}
	tw := newTab(w)
	fmt.Fprintf(tw, "Tree grafting (p=%d)\tplain-work\tgraft-work\titers plain/graft\treleased\twork-reduction\n", cfg.Procs)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d/%d\t%d\t%.1f%%\n",
			r.Matrix, r.PlainWork, r.GraftWork, r.PlainIters, r.GraftIters, r.ReleasedRows, r.ReductionPct)
	}
	tw.Flush()
	return rows
}

// BalanceRow reports per-rank work imbalance with and without the random
// permutation of Section IV-A.
type BalanceRow struct {
	Matrix             string
	ImbalanceUnperm    float64 // max/mean per-rank work, natural ordering
	ImbalancePermuted  float64 // max/mean per-rank work, randomly permuted
	ModeledTimeUnperm  float64
	ModeledTimePermute float64
}

// BalanceAblation measures the load-balancing claim of Section IV-A ("to
// balance load across processors, we randomly permute the input matrix"):
// per-rank SpMV work imbalance (max/mean) and modeled critical-path time,
// with and without the permutation. Locality-ordered matrices (road
// networks, banded systems) concentrate nonzeros in diagonal blocks of the
// grid unless permuted.
func BalanceAblation(w io.Writer, cfg core.Config, scale int, names []string) []BalanceRow {
	if names == nil {
		names = []string{"road_usa", "cage15", "amazon-2008"}
	}
	imbalance := func(res *core.Result) float64 {
		var sum, max float64
		for _, m := range res.PerRank {
			v := float64(m.Work)
			sum += v
			if v > max {
				max = v
			}
		}
		if sum == 0 {
			return 1
		}
		return max / (sum / float64(len(res.PerRank)))
	}
	var rows []BalanceRow
	for _, name := range names {
		a := suiteMatrix(name, scale)
		un := run(cfg, a, core.Config{Procs: cfg.Procs, Init: core.InitDynMinDegree})
		pe := run(cfg, a, core.Config{Procs: cfg.Procs, Init: core.InitDynMinDegree, Permute: true, Seed: 3})
		rows = append(rows, BalanceRow{
			Matrix:             name,
			ImbalanceUnperm:    imbalance(un),
			ImbalancePermuted:  imbalance(pe),
			ModeledTimeUnperm:  modeledTime(un, cfg.Threads),
			ModeledTimePermute: modeledTime(pe, cfg.Threads),
		})
	}
	tw := newTab(w)
	fmt.Fprintf(tw, "Load balance (p=%d)\timbalance raw\timbalance permuted\ttime raw\ttime permuted\n", cfg.Procs)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.4gs\t%.4gs\n",
			r.Matrix, r.ImbalanceUnperm, r.ImbalancePermuted,
			r.ModeledTimeUnperm, r.ModeledTimePermute)
	}
	tw.Flush()
	return rows
}

// SSMSRow compares single-source and multi-source BFS matching on one
// matrix.
type SSMSRow struct {
	Matrix    string
	MSIters   int
	SSIters   int
	MSModeled float64 // Edison seconds (unscaled: the gap is latency)
	SSModeled float64
}

// SingleVsMultiSource quantifies the paper's Section III-A argument for
// choosing MS-BFS: single-source search runs one phase per unmatched
// vertex, multiplying the number of level-synchronous iterations — and
// therefore the number of collective latencies — while each SpMV does
// trivial work.
func SingleVsMultiSource(w io.Writer, cfg core.Config, scale int, names []string) []SSMSRow {
	if names == nil {
		names = []string{"road_usa", "amazon-2008"}
	}
	side := nearestSquareSide(cfg.Procs)
	var rows []SSMSRow
	for _, name := range names {
		a := suiteMatrix(name, scale)
		blocks := spmat.DistributeRanks(a, side, side, nil)
		measure := func(engine string) (int, float64) {
			iters := 0
			meters := make([]mpi.Meter, side*side)
			err := core.RunDistributed(side, a.NRows, a.NCols, blocks,
				core.Config{Procs: side * side, Init: core.InitGreedy}, func(s *core.Solver) error {
					mater, matec := s.MaximalInit()
					if err := s.RunEngineByName(engine, mater, matec); err != nil {
						return err
					}
					r := s.G.World.Rank()
					meters[r] = s.G.World.MeterSnapshot()
					if r == 0 {
						iters = s.Stats.Iterations
					}
					return nil
				})
			if err != nil {
				panic(err)
			}
			return iters, costmodel.Edison.CriticalTime(meters, cfg.Threads)
		}
		msIters, msTime := measure(core.EngineBFS)
		ssIters, ssTime := measure(core.EngineBFSSingleSource)
		rows = append(rows, SSMSRow{Matrix: name, MSIters: msIters, SSIters: ssIters,
			MSModeled: msTime, SSModeled: ssTime})
	}
	tw := newTab(w)
	fmt.Fprintf(tw, "SS vs MS BFS (p=%d)\tMS iters\tSS iters\tMS time\tSS time\tSS/MS\n", side*side)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.4gs\t%.4gs\t%.1fx\n",
			r.Matrix, r.MSIters, r.SSIters, r.MSModeled, r.SSModeled, r.SSModeled/r.MSModeled)
	}
	tw.Flush()
	return rows
}
