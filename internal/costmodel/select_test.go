package costmodel_test

import (
	"slices"
	"testing"

	"mcmdist/internal/core"
	"mcmdist/internal/costmodel"
)

// TestSelectEngineVerdictsAreEngines drives each branch of SelectEngine and
// requires every verdict to name an engine core runs: the selector spells
// its verdicts as string literals, apart from core's engine table.
func TestSelectEngineVerdictsAreEngines(t *testing.T) {
	cases := []struct {
		want string
		f    costmodel.GraphFeatures
	}{
		// Small and sparse: few bidding rounds undercut L² BFS latency.
		{core.EngineAuction, costmodel.GraphFeatures{N1: 256, N2: 256, NNZ: 1024, DegCV: 0.8, Procs: 4, Threads: 1}},
		// Large, sparse and regular: the auction's price war dominates.
		{core.EngineBFS, costmodel.GraphFeatures{N1: 1 << 16, N2: 1 << 16, NNZ: 1 << 18, DegCV: 0.1, Procs: 16, Threads: 1}},
		// The same shape with power-law skew picks the grafting variant.
		{core.EngineBFSGraft, costmodel.GraphFeatures{N1: 1 << 16, N2: 1 << 16, NNZ: 1 << 18, DegCV: 1.5, Procs: 16, Threads: 1}},
	}
	names := core.EngineNames()
	for _, c := range cases {
		got := costmodel.SelectEngine(costmodel.Laptop, c.f).Engine
		if got != c.want {
			t.Fatalf("SelectEngine(%+v) = %q, want %q", c.f, got, c.want)
		}
		if !slices.Contains(names, got) {
			t.Fatalf("SelectEngine verdict %q is not an engine (have %v)", got, names)
		}
	}
}
