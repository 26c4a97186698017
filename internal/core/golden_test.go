package core

// Golden trajectories of the two BFS engines. Each cell solves one graph
// with one engine, SpMV direction and thread count, and reduces the run to a
// digest: the mates hash, the SPMD Stats counters, the peak frontier and
// its iteration (read from rank 0's time-series), the per-rank meters, the
// per-op meters and (for bfs) the per-rank iteration
// time-series, per-iteration meter deltas included. A change to the shared
// MS-BFS phase that moves any collective, counter or mate fails here.
//
// bfs-ss cells pin no time-series beyond the peak. Its phase column numbers
// the sources tried, whose per-rank agreement and count
// TestTimeSeriesEveryEngine checks.

import (
	"fmt"
	"hash/fnv"
	"testing"

	"mcmdist/internal/gen"
	"mcmdist/internal/obs"
	"mcmdist/internal/rmat"
	"mcmdist/internal/spmat"
)

// trajectoryDigest renders the deterministic record of one solve.
func trajectoryDigest(res *Result, col *obs.Collector, withSeries bool) string {
	h := fnv.New64a()
	fmt.Fprint(h, res.Matching.MateR, res.Matching.MateC)
	mates := h.Sum64()
	h.Reset()
	for _, m := range res.PerRank {
		fmt.Fprintf(h, "%d/%d/%d/%d;", m.Msgs, m.Words, m.Work, m.WordsEnc)
	}
	perRank := h.Sum64()
	h.Reset()
	for _, op := range Ops {
		m := res.Stats.Meter[op]
		fmt.Fprintf(h, "%s:%d/%d/%d/%d;", op, m.Msgs, m.Words, m.Work, m.WordsEnc)
	}
	ops := h.Sum64()
	// The peak is the first iteration with the strictly largest frontier.
	var peak, peakIter int
	for _, s := range col.Recorder(0).Samples() {
		if s.Frontier > peak {
			peak, peakIter = s.Frontier, s.Iteration
		}
	}
	st := res.Stats
	d := fmt.Sprintf("mates=%016x card=%d it=%d push=%d pull=%d ph=%d ap=%d lvl=%d path=%d peak=%d@%d rank=%016x ops=%016x",
		mates, st.Cardinality, st.Iterations, st.PushIterations, st.PullIterations,
		st.Phases, st.AugmentedPaths, st.LevelParallelAugments, st.PathParallelAugments,
		peak, peakIter, perRank, ops)
	if !withSeries {
		return d
	}
	h.Reset()
	for _, s := range col.PerRankSeries() {
		fmt.Fprintf(h, "%d/%d/%d/%d/%d/%d/%v/%d/%d/%d;", s.Rank, s.Phase, s.Iteration,
			s.Frontier, s.NewPaths, s.Matched, s.Pull, s.Msgs, s.Words, s.WordsEncoded)
	}
	return d + fmt.Sprintf(" series=%016x", h.Sum64())
}

func TestGoldenTrajectory(t *testing.T) {
	const procs = 4
	road, err := gen.FindSpec("road_usa")
	if err != nil {
		t.Fatal(err)
	}
	// A skewed G500 RMAT graph (few levels, large frontiers) and a road_usa
	// stand-in (many levels, small frontiers).
	graphs := []struct {
		name string
		a    *spmat.CSC
	}{
		{"g500", rmat.MustGenerate(rmat.G500, 9, 8, 41)},
		{"road", gen.MustGenerate(road, 9)},
	}
	for _, g := range graphs {
		for _, engine := range []string{EngineBFS, EngineBFSSingleSource} {
			for _, dir := range []Direction{DirectionPush, DirectionPull, DirectionAuto} {
				for _, threads := range []int{1, 3} {
					name := fmt.Sprintf("%s/%s/%s/t%d", engine, dir, g.name, threads)
					t.Run(name, func(t *testing.T) {
						col := obs.NewCollector(procs, obs.Options{TimeSeries: true})
						res := mustSolve(t, g.a, Config{
							Procs: procs, Threads: threads, Init: InitDynMinDegree,
							Engine: engine, Direction: dir, Obs: col,
						})
						got := trajectoryDigest(res, col, engine != EngineBFSSingleSource)
						want, ok := goldenTrajectories[name]
						if !ok {
							t.Fatalf("no golden entry; got\n\t%q: %q,", name, got)
						}
						if got != want {
							t.Errorf("trajectory diverged\n got: %s\nwant: %s", got, want)
						}
					})
				}
			}
		}
	}
}

var goldenTrajectories = map[string]string{
	"bfs/push/g500/t1":    "mates=4afced5508d98fce card=278 it=26 push=26 pull=0 ph=3 ap=14 lvl=0 path=3 peak=109@1 rank=2cfa43a5c3ae9fe2 ops=d2cbf3f25af96d87 series=d4e8d01c79a14cc6",
	"bfs/push/g500/t3":    "mates=4afced5508d98fce card=278 it=26 push=26 pull=0 ph=3 ap=14 lvl=0 path=3 peak=109@1 rank=2cfa43a5c3ae9fe2 ops=d2cbf3f25af96d87 series=d4e8d01c79a14cc6",
	"bfs/pull/g500/t1":    "mates=4afced5508d98fce card=278 it=26 push=0 pull=26 ph=3 ap=14 lvl=0 path=3 peak=109@1 rank=2896f946d28e8883 ops=ec7ee353bcc98fd0 series=22d70807d3f70f41",
	"bfs/pull/g500/t3":    "mates=4afced5508d98fce card=278 it=26 push=0 pull=26 ph=3 ap=14 lvl=0 path=3 peak=109@1 rank=2896f946d28e8883 ops=ec7ee353bcc98fd0 series=22d70807d3f70f41",
	"bfs/auto/g500/t1":    "mates=4afced5508d98fce card=278 it=26 push=25 pull=1 ph=3 ap=14 lvl=0 path=3 peak=109@1 rank=069983b61124cb3e ops=24888b504cfc5fd6 series=414656a352a252a3",
	"bfs/auto/g500/t3":    "mates=4afced5508d98fce card=278 it=26 push=25 pull=1 ph=3 ap=14 lvl=0 path=3 peak=109@1 rank=069983b61124cb3e ops=24888b504cfc5fd6 series=414656a352a252a3",
	"bfs-ss/push/g500/t1": "mates=36cc58c74ae50475 card=278 it=486 push=486 pull=0 ph=14 ap=14 lvl=0 path=14 peak=28@273 rank=0a41c66fe2cf15d3 ops=cdc9acee2807e3d9",
	"bfs-ss/push/g500/t3": "mates=36cc58c74ae50475 card=278 it=486 push=486 pull=0 ph=14 ap=14 lvl=0 path=14 peak=28@273 rank=0a41c66fe2cf15d3 ops=cdc9acee2807e3d9",
	"bfs-ss/pull/g500/t1": "mates=36cc58c74ae50475 card=278 it=486 push=0 pull=486 ph=14 ap=14 lvl=0 path=14 peak=28@273 rank=4c9ccdf3c4fd0c02 ops=12db00732fccc20d",
	"bfs-ss/pull/g500/t3": "mates=36cc58c74ae50475 card=278 it=486 push=0 pull=486 ph=14 ap=14 lvl=0 path=14 peak=28@273 rank=4c9ccdf3c4fd0c02 ops=12db00732fccc20d",
	"bfs-ss/auto/g500/t1": "mates=36cc58c74ae50475 card=278 it=486 push=486 pull=0 ph=14 ap=14 lvl=0 path=14 peak=28@273 rank=e7e3d575f91669df ops=b0c4a7baf32ad2d2",
	"bfs-ss/auto/g500/t3": "mates=36cc58c74ae50475 card=278 it=486 push=486 pull=0 ph=14 ap=14 lvl=0 path=14 peak=28@273 rank=e7e3d575f91669df ops=b0c4a7baf32ad2d2",
	"bfs/push/road/t1":    "mates=9f14ca86bae439b3 card=510 it=46 push=46 pull=0 ph=2 ap=33 lvl=0 path=2 peak=130@2 rank=aa890475eab09faa ops=b79a530746df7901 series=81c1fac57881449f",
	"bfs/push/road/t3":    "mates=9f14ca86bae439b3 card=510 it=46 push=46 pull=0 ph=2 ap=33 lvl=0 path=2 peak=130@2 rank=aa890475eab09faa ops=b79a530746df7901 series=81c1fac57881449f",
	"bfs/pull/road/t1":    "mates=9f14ca86bae439b3 card=510 it=46 push=0 pull=46 ph=2 ap=33 lvl=0 path=2 peak=130@2 rank=31b8fd619b049bfa ops=0ba61152ac6f8846 series=0dfeeac9e198470c",
	"bfs/pull/road/t3":    "mates=9f14ca86bae439b3 card=510 it=46 push=0 pull=46 ph=2 ap=33 lvl=0 path=2 peak=130@2 rank=31b8fd619b049bfa ops=0ba61152ac6f8846 series=0dfeeac9e198470c",
	"bfs/auto/road/t1":    "mates=9f14ca86bae439b3 card=510 it=46 push=46 pull=0 ph=2 ap=33 lvl=0 path=2 peak=130@2 rank=d5727398d0909f27 ops=dcb329048530b0ea series=03ae6f9a5d0a2474",
	"bfs/auto/road/t3":    "mates=9f14ca86bae439b3 card=510 it=46 push=45 pull=1 ph=2 ap=33 lvl=0 path=2 peak=130@2 rank=45ff66adfe743a13 ops=75a247ad87d10a2a series=51b1031b3e09f9cb",
	"bfs-ss/push/road/t1": "mates=6f91a2d2b2f2c063 card=510 it=174 push=174 pull=0 ph=33 ap=33 lvl=0 path=33 peak=10@53 rank=28124040dd1bd040 ops=6f9796de88996653",
	"bfs-ss/push/road/t3": "mates=6f91a2d2b2f2c063 card=510 it=174 push=174 pull=0 ph=33 ap=33 lvl=0 path=33 peak=10@53 rank=28124040dd1bd040 ops=6f9796de88996653",
	"bfs-ss/pull/road/t1": "mates=6f91a2d2b2f2c063 card=510 it=174 push=0 pull=174 ph=33 ap=33 lvl=0 path=33 peak=10@53 rank=2a8c82fb9b5ae3ad ops=7ab8c259c0b57020",
	"bfs-ss/pull/road/t3": "mates=6f91a2d2b2f2c063 card=510 it=174 push=0 pull=174 ph=33 ap=33 lvl=0 path=33 peak=10@53 rank=2a8c82fb9b5ae3ad ops=7ab8c259c0b57020",
	"bfs-ss/auto/road/t1": "mates=6f91a2d2b2f2c063 card=510 it=174 push=174 pull=0 ph=33 ap=33 lvl=0 path=33 peak=10@53 rank=12952b029511a5c0 ops=192592e298b064bc",
	"bfs-ss/auto/road/t3": "mates=6f91a2d2b2f2c063 card=510 it=174 push=174 pull=0 ph=33 ap=33 lvl=0 path=33 peak=10@53 rank=12952b029511a5c0 ops=192592e298b064bc",
}
