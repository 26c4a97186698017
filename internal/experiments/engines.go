package experiments

import (
	"fmt"
	"io"
	"time"

	"mcmdist/internal/core"
	"mcmdist/internal/verify"
)

// EngineSweepRow is one engine's line of the engine comparison: measured
// host wall clock, modeled Edison time, iteration count, the exact
// words-on-wire ledger, and whether the König certificate confirmed the
// matching is maximum.
type EngineSweepRow struct {
	Engine         string  `json:"engine"`
	Cardinality    int     `json:"cardinality"`
	Iterations     int     `json:"iterations"`
	WallSeconds    float64 `json:"wall_seconds"`
	ModeledSeconds float64 `json:"modeled_seconds"`
	Words          int64   `json:"words"`
	Msgs           int64   `json:"msgs"`
	Verified       bool    `json:"verified"`
}

// EngineSweep runs every matching engine on one matrix and tabulates wall
// clock, modeled time, iterations and exact communication volume. Every engine must produce a maximum matching —
// the sweep panics if the verifier rejects one, since a fast engine that
// returns a smaller matching is not comparable. Backs the engine table in
// EXPERIMENTS.md.
func EngineSweep(w io.Writer, cfg core.Config, matrixName string, scale int) []EngineSweepRow {
	a := suiteMatrix(matrixName, scale)
	var rows []EngineSweepRow
	for _, name := range core.EngineNames() {
		start := time.Now()
		res := run(a, core.Config{
			Engine: name, Procs: cfg.Procs, Threads: cfg.Threads,
			Init: core.InitDynMinDegree, Permute: true, Seed: 17,
		})
		wall := time.Since(start).Seconds()
		m := res.Matching
		if err := verify.Valid(a, m); err != nil {
			panic(fmt.Sprintf("experiments: engine %s produced an invalid matching: %v", name, err))
		}
		if err := verify.Maximum(a, m); err != nil {
			panic(fmt.Sprintf("experiments: engine %s is not maximum: %v", name, err))
		}
		var words, msgs int64
		for _, mt := range res.PerRank {
			words += mt.Words
			msgs += mt.Msgs
		}
		rows = append(rows, EngineSweepRow{
			Engine:         name,
			Cardinality:    res.Stats.Cardinality,
			Iterations:     res.Stats.Iterations,
			WallSeconds:    wall,
			ModeledSeconds: modeledTime(res, cfg.Threads),
			Words:          words,
			Msgs:           msgs,
			Verified:       true,
		})
	}
	tw := newTab(w)
	fmt.Fprintf(tw, "Engine sweep (%s scale %d, p=%d, t=%d)\t|M|\titers\twall(s)\tmodeled(s)\twords\tmsgs\tmaximum\n",
		matrixName, scale, cfg.Procs, cfg.Threads)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.3f\t%.4f\t%d\t%d\t%v\n",
			r.Engine, r.Cardinality, r.Iterations, r.WallSeconds, r.ModeledSeconds,
			r.Words, r.Msgs, r.Verified)
	}
	tw.Flush()
	return rows
}
