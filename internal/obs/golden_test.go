package obs

// Golden shipment bytes: one ProcObs and one FlightDump built from fixed
// literals that touch every field of the format, compared byte for byte
// with testdata/golden-ship.txt. The file pins MCMOBS3 and MCMFDR2: a change
// that moves any byte fails here, however the codec is written. Each golden
// must also decode back to its literal, and every strict prefix of it, as
// well as the golden with one trailing byte, must fail to decode.

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"testing"
)

// goldenRankObs is one rank's share with every field set: several span
// kinds, a dropped count, and a push and a pull sample.
// Samples carry Rank 0 because the codec leaves the per-sample rank out.
func goldenRankObs(rank int) RankObs {
	return RankObs{
		Rank: rank,
		Spans: []Span{
			{Kind: KindSolve, Name: "solve", Start: 1_000, Dur: 90_000},
			{Kind: KindPhase, Name: "phase", Start: 1_200, Dur: 40_000, Arg: 1},
			{Kind: KindIteration, Name: "iteration", Start: 1_300, Dur: 9_000, Arg: 2},
			{Kind: KindOp, Name: "spmv", Start: 1_400, Dur: 3_000, Arg: 2},
			{Kind: KindCollective, Name: "alltoallv", Start: 1_500, Dur: 700, Arg: 96, Flow: 0x1122334455667788},
			{Kind: KindRMA, Name: "get", Start: 5_000, Dur: 80, Arg: 4},
			{Kind: KindInstant, Name: "checkpoint", Start: 41_000, Arg: -1},
		},
		Dropped: 17,
		Samples: []IterSample{
			{Phase: 1, Iteration: 1, Frontier: 64, NewPaths: 3, Matched: 120,
				WallNs: 5_000, Msgs: 6, Words: 400, CommNs: 2_000, ExposedNs: 900, PoolBusyNs: 7_000, PoolSpanNs: 4_000},
			{Phase: 1, Iteration: 2, Frontier: 900, NewPaths: 11, Matched: 131, Pull: true,
				WallNs: 8_000, Msgs: 6, Words: 1_800, WordsEncoded: 700, CommNs: 3_000, ExposedNs: 1_100,
				PoolBusyNs: 12_000, PoolSpanNs: 6_500},
		},
	}
}

// goldenProcObs is a two-rank shipment with events.
func goldenProcObs() *ProcObs {
	return &ProcObs{
		Gen:   3,
		Ranks: []RankObs{goldenRankObs(1), goldenRankObs(3)},
		Events: []Event{
			{Name: "hb.rtt to 0", Rank: 1, At: 77, Arg: 52_000},
			{Name: "fault", Rank: -1, At: 9_000, Arg: 2},
		},
	}
}

// goldenFlightDump is a two-rank crash dump.
func goldenFlightDump() *FlightDump {
	return &FlightDump{Gen: 4, Cause: "rank 2: peer down", Ranks: []RankObs{goldenRankObs(0), goldenRankObs(2)}}
}

// readGolden parses a "NAME hex" golden file; blank and # lines are
// comments.
func readGolden(t *testing.T, path string) map[string][]byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string][]byte{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hx, ok := strings.Cut(line, " ")
		b, err := hex.DecodeString(hx)
		if !ok || err != nil {
			t.Fatalf("bad golden line %q", line)
		}
		want[name] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// checkGolden compares one encoding with its golden bytes, decodes the
// golden back to want, and requires every strict prefix and the golden
// plus one trailing byte to fail to decode.
func checkGolden[T any](t *testing.T, goldens map[string][]byte, name string, want T, enc []byte, decode func([]byte) (T, error)) {
	t.Helper()
	g, ok := goldens[name]
	if !ok {
		t.Fatalf("no golden bytes for %s; written:\n%s %x", name, name, enc)
	}
	if !bytes.Equal(enc, g) {
		t.Errorf("%s encoding changed; written:\n%s %x\nwant:\n%s %x", name, name, enc, name, g)
	}
	got, err := decode(g)
	if err != nil {
		t.Fatalf("%s golden does not decode: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s golden decodes to\n %+v\nwant\n %+v", name, got, want)
	}
	for cut := 0; cut < len(g); cut++ {
		if _, err := decode(g[:cut]); err == nil {
			t.Fatalf("%s cut to %d of %d bytes decoded cleanly", name, cut, len(g))
		}
	}
	if _, err := decode(append(append([]byte(nil), g...), 0)); err == nil {
		t.Errorf("%s with one trailing byte decoded cleanly", name)
	}
}

func TestGoldenShipments(t *testing.T) {
	goldens := readGolden(t, "testdata/golden-ship.txt")
	po := goldenProcObs()
	checkGolden(t, goldens, "MCMOBS3", po, po.Encode(), DecodeProcObs)
	d := goldenFlightDump()
	checkGolden(t, goldens, "MCMFDR2", d, d.Encode(), DecodeFlightDump)
}
