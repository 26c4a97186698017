package core

// Solver-level backend conformance: the same instance solved over loopback
// TCP (one endpoint per rank, separate worlds in this process) must produce
// mate vectors bit-identical to the in-process oracle, with identical
// per-rank meter ledgers. This is the in-test twin of the CI transport-smoke
// job, which does the same across real OS processes via cmd/mcmrank.

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"mcmdist/internal/mpi"
	"mcmdist/internal/mpi/tcpnet"
	"mcmdist/internal/rmat"
	"mcmdist/internal/spmat"
	"mcmdist/internal/verify"
)

// solveEndpoints runs SolveOn on every endpoint of eps concurrently and
// returns one Result per endpoint, in eps order, and the first error.
func solveEndpoints(eps []mpi.Transport, a *spmat.CSC, cfg Config) ([]*Result, error) {
	results, errs := onEndpoints(eps, func(ep mpi.Transport) (*Result, error) {
		return SolveOn(ep, a, cfg)
	})
	return results, errors.Join(errs...)
}

func TestSolveOnLoopbackTCPMatchesOracle(t *testing.T) {
	a := rmat.MustGenerate(rmat.G500, 7, 4, 21)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{Procs: 4, Seed: 3}},
		{"permute-init", Config{Procs: 4, Init: InitKarpSipser, Permute: true, Seed: 3}},
		{"single-source", Config{Procs: 4, Engine: EngineBFSSingleSource, Seed: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oracle, err := Solve(a, tc.cfg)
			if err != nil {
				t.Fatalf("oracle solve: %v", err)
			}
			if err := verify.Maximum(a, oracle.Matching); err != nil {
				t.Fatalf("oracle not maximum: %v", err)
			}

			eps, err := tcpnet.Loopback(tc.cfg.Procs)
			if err != nil {
				t.Fatalf("building tcp endpoints: %v", err)
			}
			results, err := solveEndpoints(eps, a, tc.cfg)
			if cerr := mpi.CloseAll(eps); cerr != nil {
				t.Errorf("closing endpoints: %v", cerr)
			}
			if err != nil {
				t.Fatalf("tcp solve: %v", err)
			}

			for i, res := range results {
				if want, got := fmt.Sprint(oracle.Matching.MateR), fmt.Sprint(res.Matching.MateR); want != got {
					t.Errorf("endpoint %d MateR diverges from oracle:\n  oracle: %s\n  tcp:    %s", i, want, got)
				}
				if want, got := fmt.Sprint(oracle.Matching.MateC), fmt.Sprint(res.Matching.MateC); want != got {
					t.Errorf("endpoint %d MateC diverges from oracle", i)
				}
				if want, got := oracle.Stats.Cardinality, res.Stats.Cardinality; want != got {
					t.Errorf("endpoint %d cardinality %d, oracle %d", i, got, want)
				}
				// Each endpoint hosts exactly one rank; its ledger must match
				// the oracle's ledger for that rank bit-for-bit.
				r := eps[i].LocalRanks()[0]
				if want, got := oracle.PerRank[r], res.PerRank[r]; want != got {
					t.Errorf("rank %d meter: oracle %+v, tcp %+v", r, want, got)
				}
			}
		})
	}
}

// TestSolveOnBuildsOnlyHostedBlocks pins Section IV-A's data layout on a
// transport: each endpoint of a 4-process loopback world builds the blocks
// of A and Aᵀ for the rank it hosts and leaves every other entry nil, and
// the solve over those partial distributions still returns the oracle's
// mates bit for bit.
func TestSolveOnBuildsOnlyHostedBlocks(t *testing.T) {
	a := rmat.MustGenerate(rmat.G500, 8, 4, 5)
	cfg := Config{Procs: 4, Init: InitDynMinDegree, Permute: true, Seed: 7}
	oracle, err := Solve(a, cfg)
	if err != nil {
		t.Fatalf("oracle solve: %v", err)
	}
	eps, err := tcpnet.Loopback(cfg.Procs)
	if err != nil {
		t.Fatalf("building tcp endpoints: %v", err)
	}
	defer func() {
		if cerr := mpi.CloseAll(eps); cerr != nil {
			t.Errorf("closing endpoints: %v", cerr)
		}
	}()

	for _, ep := range eps {
		d, err := distribute(ep, a, cfg, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		hosted := ep.LocalRanks()
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				local := slices.Contains(hosted, i*2+j)
				if built := d.blocks[i][j] != nil; built != local {
					t.Errorf("endpoint hosting %v: A block (%d,%d) built=%v", hosted, i, j, built)
				}
			}
		}
	}

	results, err := solveEndpoints(eps, a, cfg)
	if err != nil {
		t.Fatalf("tcp solve: %v", err)
	}
	for i, res := range results {
		if !slices.Equal(res.Matching.MateR, oracle.Matching.MateR) || !slices.Equal(res.Matching.MateC, oracle.Matching.MateC) {
			t.Errorf("endpoint %d mates diverge from the in-process oracle", i)
		}
	}
}

// TestSolveEndpointsSizeMismatch pins the procs/world-size validation.
func TestSolveEndpointsSizeMismatch(t *testing.T) {
	a := rmat.MustGenerate(rmat.ER, 5, 4, 9)
	if _, err := SolveOn(mpi.NewInproc(2), a, Config{Procs: 4}); err == nil {
		t.Fatal("SolveOn accepted a transport smaller than cfg.Procs")
	}
}
