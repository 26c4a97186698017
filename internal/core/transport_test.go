package core

// Solver-level backend conformance: the same instance solved over loopback
// TCP (one endpoint per rank, separate worlds in this process) must produce
// mate vectors bit-identical to the in-process oracle, with identical
// per-rank meter ledgers. This is the in-test twin of the CI transport-smoke
// job, which does the same across real OS processes via cmd/mcmrank.

import (
	"fmt"
	"testing"

	"mcmdist/internal/mpi"
	_ "mcmdist/internal/mpi/tcpnet" // register the "tcp" backend
	"mcmdist/internal/rmat"
	"mcmdist/internal/verify"
)

func TestSolveOnLoopbackTCPMatchesOracle(t *testing.T) {
	a := rmat.MustGenerate(rmat.G500, 7, 4, 21)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{Procs: 4, Seed: 3}},
		{"permute-init", Config{Procs: 4, Init: InitKarpSipser, Permute: true, Seed: 3}},
		{"grafting", Config{Procs: 4, Engine: EngineBFSGraft, Seed: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oracle, err := Solve(a, tc.cfg)
			if err != nil {
				t.Fatalf("oracle solve: %v", err)
			}
			if err := verify.Maximum(a, oracle.Matching); err != nil {
				t.Fatalf("oracle not maximum: %v", err)
			}

			eps, err := mpi.NewTransportSet("tcp", tc.cfg.Procs)
			if err != nil {
				t.Fatalf("building tcp endpoints: %v", err)
			}
			results, err := SolveEndpoints(eps, a, tc.cfg)
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

// TestSolveEndpointsSizeMismatch pins the procs/world-size validation.
func TestSolveEndpointsSizeMismatch(t *testing.T) {
	a := rmat.MustGenerate(rmat.ER, 5, 4, 9)
	if _, err := SolveOn(mpi.NewInproc(2), a, Config{Procs: 4}); err == nil {
		t.Fatal("SolveOn accepted a transport smaller than cfg.Procs")
	}
}
