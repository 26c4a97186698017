package core

import (
	"math"
	"testing"

	"mcmdist/internal/costmodel"
	"mcmdist/internal/gen"
	"mcmdist/internal/rmat"
	"mcmdist/internal/spmat"
)

// blockEngineFeatures is how engineFeatures used to summarize an instance:
// column degrees summed block by block over a full 2D distribution. The
// CSC-based version must reproduce it bit for bit, or "auto" could resolve
// to a different engine than before.
func blockEngineFeatures(cfg Config, n1, n2 int, blocks [][]*spmat.LocalMatrix) costmodel.GraphFeatures {
	deg := make([]int, n2)
	nnz := 0
	for _, row := range blocks {
		for _, b := range row {
			d := b.M
			for k, j := range d.JC {
				cnt := d.CP[k+1] - d.CP[k]
				deg[b.Cols.Lo+j] += cnt
				nnz += cnt
			}
		}
	}
	cv := 0.0
	if n2 > 0 && nnz > 0 {
		mean := float64(nnz) / float64(n2)
		var ss float64
		for _, d := range deg {
			diff := float64(d) - mean
			ss += diff * diff
		}
		cv = math.Sqrt(ss/float64(n2)) / mean
	}
	return costmodel.GraphFeatures{
		N1: n1, N2: n2, NNZ: nnz, DegCV: cv,
		Procs: cfg.Procs, Threads: cfg.Threads,
	}
}

// TestEngineFeaturesMatchBlockSum pins engineFeatures on the enginesweep
// matrices, permuted as the sweep permutes them, across grid shapes.
func TestEngineFeaturesMatchBlockSum(t *testing.T) {
	road, err := gen.FindSpec("road_usa")
	if err != nil {
		t.Fatal(err)
	}
	matrices := map[string]*spmat.CSC{
		"g500":     rmat.MustGenerate(rmat.G500, 10, 8, 17),
		"er":       rmat.MustGenerate(rmat.ER, 10, 8, 17),
		"ssca":     rmat.MustGenerate(rmat.SSCA, 10, 8, 17),
		"road_usa": gen.MustGenerate(road, 10),
	}
	for name, a := range matrices {
		const seed = 17
		work := a.Permute(rmat.RandomPermutation(a.NRows, seed*2+1), rmat.RandomPermutation(a.NCols, seed*2+2))
		for _, g := range [][2]int{{1, 1}, {2, 2}, {4, 4}, {2, 3}} {
			cfg := Config{Procs: g[0] * g[1], Threads: 2}
			want := blockEngineFeatures(cfg, work.NRows, work.NCols, spmat.Distribute2D(work, g[0], g[1]))
			got := engineFeatures(cfg, work)
			if got != want || math.Float64bits(got.DegCV) != math.Float64bits(want.DegCV) {
				t.Fatalf("%s on %dx%d: features %+v, block-summed %+v", name, g[0], g[1], got, want)
			}
			if c, w := costmodel.SelectEngine(costmodel.Laptop, got), costmodel.SelectEngine(costmodel.Laptop, want); c != w {
				t.Fatalf("%s on %dx%d: auto picks %+v, block-summed %+v", name, g[0], g[1], c, w)
			}
		}
	}
}
