package costmodel

import (
	"math"
	"testing"

	"mcmdist/internal/mpi"
)

func TestTimeComponents(t *testing.T) {
	m := Machine{Name: "unit", TOp: 1, Alpha: 10, Beta: 100}
	meter := mpi.Meter{Work: 5, Msgs: 3, Words: 2}
	want := 5.0 + 30 + 200
	if got := m.Time(meter, 1); got != want {
		t.Fatalf("Time = %v, want %v", got, want)
	}
}

func TestThreadsDivideWorkOnly(t *testing.T) {
	m := Machine{TOp: 1, Alpha: 1, Beta: 1}
	meter := mpi.Meter{Work: 12, Msgs: 4, Words: 8}
	t1 := m.Time(meter, 1)
	t4 := m.Time(meter, 4)
	if t4 >= t1 {
		t.Fatalf("threads did not help: %v >= %v", t4, t1)
	}
	if want := 12.0/4 + 4 + 8; t4 != want {
		t.Fatalf("t4 = %v, want %v", t4, want)
	}
	// Communication terms unchanged.
	if m.Time(mpi.Meter{Msgs: 4, Words: 8}, 4) != 12 {
		t.Fatal("threads scaled communication")
	}
	if m.Time(meter, 0) != t1 {
		t.Fatal("threads=0 not treated as 1")
	}
}

func TestCriticalTimeIsMax(t *testing.T) {
	m := Machine{TOp: 1, Alpha: 0, Beta: 0}
	per := []mpi.Meter{{Work: 1}, {Work: 9}, {Work: 4}}
	if got := m.CriticalTime(per, 1); got != 9 {
		t.Fatalf("CriticalTime = %v", got)
	}
	if m.CriticalTime(nil, 1) != 0 {
		t.Fatal("empty CriticalTime nonzero")
	}
}

func TestBreakdown(t *testing.T) {
	m := Machine{TOp: 1, Alpha: 1, Beta: 1}
	got := m.Breakdown(map[string]mpi.Meter{
		"spmv":   {Work: 2},
		"invert": {Msgs: 3},
	}, 1)
	if got["spmv"] != 2 || got["invert"] != 3 {
		t.Fatalf("Breakdown = %v", got)
	}
}

func TestGatherScatterGrowsWithEdges(t *testing.T) {
	small := Edison.GatherScatter(1_000_000, 100_000, 2048)
	big := Edison.GatherScatter(1_000_000_000, 100_000_000, 2048)
	if big <= small {
		t.Fatalf("gather cost did not grow: %v <= %v", big, small)
	}
	// Fig. 9's anchor: ~900M nonzeros takes on the order of 10 seconds.
	nlp := Edison.GatherScatter(900_000_000, 100_000_000, 2048)
	if nlp < 1 || nlp > 60 {
		t.Fatalf("nlpkkt200-scale gather = %v s, expected order 10 s", nlp)
	}
	if Edison.GatherScatter(100, 10, 1) != 0 {
		t.Fatal("single-rank gather should be free")
	}
}

func TestEdisonConstantsPlausible(t *testing.T) {
	if Edison.Alpha < 1e-7 || Edison.Alpha > 1e-5 {
		t.Fatalf("alpha %v not in plausible MPI range", Edison.Alpha)
	}
	if Edison.Beta <= 0 || Edison.Beta > 1e-7 {
		t.Fatalf("beta %v implausible", Edison.Beta)
	}
	if Edison.Alpha/Edison.Beta < 100 {
		t.Fatal("alpha/beta ratio too small: latency should dominate short messages")
	}
	if Edison.String() == "" || math.IsNaN(Edison.Alpha) {
		t.Fatal("bad machine formatting")
	}
}
