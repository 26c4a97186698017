package experiments

import (
	"fmt"
	"io"

	"mcmdist/internal/core"
	"mcmdist/internal/rmat"
)

// DirectionSweepRow is one (scale, direction) cell of the static-vs-auto
// direction sweep: modeled solve time, the push/pull iteration split, and
// the words-on-wire ledger raw and delta-varint encoded.
type DirectionSweepRow struct {
	Scale          int     `json:"scale"`
	Direction      string  `json:"direction"`
	Cardinality    int     `json:"cardinality"`
	Iterations     int     `json:"iterations"`
	PushIterations int     `json:"push_iterations"`
	PullIterations int     `json:"pull_iterations"`
	ModeledSeconds float64 `json:"modeled_seconds"`
	Words          int64   `json:"words"`
	WordsEncoded   int64   `json:"words_encoded"`
	// CompressionX is Words/WordsEncoded, the wire-volume reduction the
	// delta-varint codec achieves on this run.
	CompressionX float64 `json:"compression_x"`
}

// DirectionSweep compares the static push, static pull and per-iteration
// auto kernels on RMAT matrices across scales, all with wire compression
// metering on so every row carries the raw-vs-encoded words ledger. Every
// configuration must produce the same cardinality (pull is bit-identical to
// push under the MinParent semiring — see docs/KERNELS.md); the sweep
// panics if one diverges. It backs the EXPERIMENTS.md table asserting that
// auto never loses to the better static direction by more than a few
// percent while compression shrinks dense-frontier wire volume.
func DirectionSweep(w io.Writer, cfg core.Config, scales []int) []DirectionSweepRow {
	if len(scales) == 0 {
		scales = []int{14, 15, 16}
	}
	dirs := []core.Direction{core.DirectionPush, core.DirectionPull, core.DirectionAuto}
	var rows []DirectionSweepRow
	for _, scale := range scales {
		a := rmat.MustGenerate(rmat.G500, scale, 8, 17)
		var card = -1
		for _, d := range dirs {
			res := run(a, core.Config{
				Procs: cfg.Procs, Threads: cfg.Threads,
				Init: core.InitNone, Permute: true, Seed: 13,
				Direction: d, Compress: true,
			})
			if card < 0 {
				card = res.Stats.Cardinality
			} else if res.Stats.Cardinality != card {
				panic(fmt.Sprintf("experiments: direction %v changed cardinality at scale %d", d, scale))
			}
			var words, wordsEnc int64
			for _, m := range res.PerRank {
				words += m.Words
				wordsEnc += m.WordsEnc
			}
			row := DirectionSweepRow{
				Scale:          scale,
				Direction:      d.String(),
				Cardinality:    res.Stats.Cardinality,
				Iterations:     res.Stats.Iterations,
				PushIterations: res.Stats.PushIterations,
				PullIterations: res.Stats.PullIterations,
				ModeledSeconds: modeledTime(res, cfg.Threads),
				Words:          words,
				WordsEncoded:   wordsEnc,
			}
			if wordsEnc > 0 {
				row.CompressionX = float64(words) / float64(wordsEnc)
			}
			rows = append(rows, row)
		}
	}
	tw := newTab(w)
	fmt.Fprintf(tw, "Direction sweep (rmat g500, p=%d, t=%d)\tdirection\t|M|\titers (push/pull)\tmodeled(s)\twords\tencoded\tratio\n", cfg.Procs, cfg.Threads)
	for _, r := range rows {
		fmt.Fprintf(tw, "scale %d\t%s\t%d\t%d (%d/%d)\t%.4f\t%d\t%d\t%.2fx\n",
			r.Scale, r.Direction, r.Cardinality, r.Iterations, r.PushIterations, r.PullIterations,
			r.ModeledSeconds, r.Words, r.WordsEncoded, r.CompressionX)
	}
	tw.Flush()
	return rows
}
