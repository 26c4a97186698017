package experiments

import (
	"io"
	"testing"
)

func TestRecoveryBenchOracle(t *testing.T) {
	for _, kind := range []string{"none", "crash", "straggler"} {
		p := RecoveryBench(io.Discard, testConfig(4), "er", 8, RecoveryOptions{FaultKind: kind})
		if !p.CardinalityMatch {
			t.Fatalf("fault %s: recovered cardinality %d does not match clean solve", kind, p.Cardinality)
		}
		if p.Checkpoints == 0 || p.CheckpointBytes == 0 {
			t.Fatalf("fault %s: no checkpoint accounting: %+v", kind, p)
		}
		wantRetries := 0
		if kind == "crash" {
			wantRetries = 1
		}
		if p.Retries != wantRetries {
			t.Fatalf("fault %s: %d retries, want %d", kind, p.Retries, wantRetries)
		}
	}
}
