package core

// Golden trajectories of the three BFS engines. Each cell solves one graph
// with one engine, SpMV direction and thread count, and reduces the run to a
// digest: the mates hash, the SPMD Stats counters, the peak frontier and
// its iteration (read from rank 0's time-series), the per-rank meters, the
// per-op meters and (for bfs and bfs-graft) the per-rank iteration
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
	d := fmt.Sprintf("mates=%016x card=%d it=%d push=%d pull=%d ph=%d ap=%d lvl=%d path=%d gr=%d rel=%d peak=%d@%d rank=%016x ops=%016x",
		mates, st.Cardinality, st.Iterations, st.PushIterations, st.PullIterations,
		st.Phases, st.AugmentedPaths, st.LevelParallelAugments, st.PathParallelAugments,
		st.GraftResets, st.GraftReleasedRows, peak, peakIter,
		perRank, ops)
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
		for _, engine := range []string{EngineBFS, EngineBFSSingleSource, EngineBFSGraft} {
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
	"bfs/push/g500/t1":       "mates=4afced5508d98fce card=278 it=26 push=26 pull=0 ph=3 ap=14 lvl=0 path=3 gr=0 rel=0 peak=248@1 rank=537a93dcaa089e61 ops=42e8547625699e27 series=c8ad5baa7804159d",
	"bfs/push/g500/t3":       "mates=4afced5508d98fce card=278 it=26 push=26 pull=0 ph=3 ap=14 lvl=0 path=3 gr=0 rel=0 peak=248@1 rank=537a93dcaa089e61 ops=42e8547625699e27 series=c8ad5baa7804159d",
	"bfs/pull/g500/t1":       "mates=4afced5508d98fce card=278 it=26 push=0 pull=26 ph=3 ap=14 lvl=0 path=3 gr=0 rel=0 peak=248@1 rank=8b3db66ac8884ed1 ops=7789b09e3b1fae22 series=c28df651d132aa80",
	"bfs/pull/g500/t3":       "mates=4afced5508d98fce card=278 it=26 push=0 pull=26 ph=3 ap=14 lvl=0 path=3 gr=0 rel=0 peak=248@1 rank=8b3db66ac8884ed1 ops=7789b09e3b1fae22 series=c28df651d132aa80",
	"bfs/auto/g500/t1":       "mates=4afced5508d98fce card=278 it=26 push=25 pull=1 ph=3 ap=14 lvl=0 path=3 gr=0 rel=0 peak=248@1 rank=acb449163f2b9b6f ops=67ecd6c6c3007aee series=9ba4b79b7b56149e",
	"bfs/auto/g500/t3":       "mates=4afced5508d98fce card=278 it=26 push=25 pull=1 ph=3 ap=14 lvl=0 path=3 gr=0 rel=0 peak=248@1 rank=acb449163f2b9b6f ops=67ecd6c6c3007aee series=9ba4b79b7b56149e",
	"bfs-ss/push/g500/t1":    "mates=36cc58c74ae50475 card=278 it=486 push=486 pull=0 ph=14 ap=14 lvl=0 path=14 gr=0 rel=0 peak=28@273 rank=0a41c66fe2cf15d3 ops=cdc9acee2807e3d9",
	"bfs-ss/push/g500/t3":    "mates=36cc58c74ae50475 card=278 it=486 push=486 pull=0 ph=14 ap=14 lvl=0 path=14 gr=0 rel=0 peak=28@273 rank=0a41c66fe2cf15d3 ops=cdc9acee2807e3d9",
	"bfs-ss/pull/g500/t1":    "mates=36cc58c74ae50475 card=278 it=486 push=0 pull=486 ph=14 ap=14 lvl=0 path=14 gr=0 rel=0 peak=28@273 rank=4c9ccdf3c4fd0c02 ops=12db00732fccc20d",
	"bfs-ss/pull/g500/t3":    "mates=36cc58c74ae50475 card=278 it=486 push=0 pull=486 ph=14 ap=14 lvl=0 path=14 gr=0 rel=0 peak=28@273 rank=4c9ccdf3c4fd0c02 ops=12db00732fccc20d",
	"bfs-ss/auto/g500/t1":    "mates=36cc58c74ae50475 card=278 it=486 push=486 pull=0 ph=14 ap=14 lvl=0 path=14 gr=0 rel=0 peak=28@273 rank=dbf8882a1ad6a6b4 ops=008cfc7a4f530911",
	"bfs-ss/auto/g500/t3":    "mates=36cc58c74ae50475 card=278 it=486 push=486 pull=0 ph=14 ap=14 lvl=0 path=14 gr=0 rel=0 peak=28@273 rank=dbf8882a1ad6a6b4 ops=008cfc7a4f530911",
	"bfs-graft/push/g500/t1": "mates=4afced5508d98fce card=278 it=26 push=26 pull=0 ph=3 ap=14 lvl=0 path=3 gr=1 rel=119 peak=248@1 rank=58543a2d9689da33 ops=3e4a90a07e876c22 series=73582050f0c69ef2",
	"bfs-graft/push/g500/t3": "mates=4afced5508d98fce card=278 it=26 push=26 pull=0 ph=3 ap=14 lvl=0 path=3 gr=1 rel=119 peak=248@1 rank=58543a2d9689da33 ops=3e4a90a07e876c22 series=73582050f0c69ef2",
	"bfs-graft/pull/g500/t1": "mates=4afced5508d98fce card=278 it=26 push=0 pull=26 ph=3 ap=14 lvl=0 path=3 gr=1 rel=119 peak=248@1 rank=21b4ba5f0c20612b ops=6d6eadb9ab4a8205 series=46c6a9f34f83362e",
	"bfs-graft/pull/g500/t3": "mates=4afced5508d98fce card=278 it=26 push=0 pull=26 ph=3 ap=14 lvl=0 path=3 gr=1 rel=119 peak=248@1 rank=21b4ba5f0c20612b ops=6d6eadb9ab4a8205 series=46c6a9f34f83362e",
	"bfs-graft/auto/g500/t1": "mates=4afced5508d98fce card=278 it=26 push=25 pull=1 ph=3 ap=14 lvl=0 path=3 gr=1 rel=119 peak=248@1 rank=e3298af951e8abf8 ops=db5b3674732d46b1 series=13abf71380814b0c",
	"bfs-graft/auto/g500/t3": "mates=4afced5508d98fce card=278 it=26 push=25 pull=1 ph=3 ap=14 lvl=0 path=3 gr=1 rel=119 peak=248@1 rank=e3298af951e8abf8 ops=db5b3674732d46b1 series=13abf71380814b0c",
	"bfs/push/road/t1":       "mates=9f14ca86bae439b3 card=510 it=46 push=46 pull=0 ph=2 ap=33 lvl=0 path=2 gr=0 rel=0 peak=130@2 rank=b089c9a75bac2022 ops=de480153e738a699 series=266e4267902ed5f0",
	"bfs/push/road/t3":       "mates=9f14ca86bae439b3 card=510 it=46 push=46 pull=0 ph=2 ap=33 lvl=0 path=2 gr=0 rel=0 peak=130@2 rank=b089c9a75bac2022 ops=de480153e738a699 series=266e4267902ed5f0",
	"bfs/pull/road/t1":       "mates=9f14ca86bae439b3 card=510 it=46 push=0 pull=46 ph=2 ap=33 lvl=0 path=2 gr=0 rel=0 peak=130@2 rank=d0bc6d64677b4bd6 ops=dbb41128f4a82a11 series=ac753e2195852785",
	"bfs/pull/road/t3":       "mates=9f14ca86bae439b3 card=510 it=46 push=0 pull=46 ph=2 ap=33 lvl=0 path=2 gr=0 rel=0 peak=130@2 rank=d0bc6d64677b4bd6 ops=dbb41128f4a82a11 series=ac753e2195852785",
	"bfs/auto/road/t1":       "mates=9f14ca86bae439b3 card=510 it=46 push=46 pull=0 ph=2 ap=33 lvl=0 path=2 gr=0 rel=0 peak=130@2 rank=9c1ff8ce084cb32b ops=2cbed4a135639e65 series=0aef6aac2e17db1f",
	"bfs/auto/road/t3":       "mates=9f14ca86bae439b3 card=510 it=46 push=45 pull=1 ph=2 ap=33 lvl=0 path=2 gr=0 rel=0 peak=130@2 rank=b7cf661017237966 ops=c5dd83d4f1d68a9a series=7dabafd2b83fa0b6",
	"bfs-ss/push/road/t1":    "mates=6f91a2d2b2f2c063 card=510 it=174 push=174 pull=0 ph=33 ap=33 lvl=0 path=33 gr=0 rel=0 peak=10@53 rank=28124040dd1bd040 ops=6f9796de88996653",
	"bfs-ss/push/road/t3":    "mates=6f91a2d2b2f2c063 card=510 it=174 push=174 pull=0 ph=33 ap=33 lvl=0 path=33 gr=0 rel=0 peak=10@53 rank=28124040dd1bd040 ops=6f9796de88996653",
	"bfs-ss/pull/road/t1":    "mates=6f91a2d2b2f2c063 card=510 it=174 push=0 pull=174 ph=33 ap=33 lvl=0 path=33 gr=0 rel=0 peak=10@53 rank=2a8c82fb9b5ae3ad ops=7ab8c259c0b57020",
	"bfs-ss/pull/road/t3":    "mates=6f91a2d2b2f2c063 card=510 it=174 push=0 pull=174 ph=33 ap=33 lvl=0 path=33 gr=0 rel=0 peak=10@53 rank=2a8c82fb9b5ae3ad ops=7ab8c259c0b57020",
	"bfs-ss/auto/road/t1":    "mates=6f91a2d2b2f2c063 card=510 it=174 push=174 pull=0 ph=33 ap=33 lvl=0 path=33 gr=0 rel=0 peak=10@53 rank=6561b130284d7aaf ops=691615c00314eb0d",
	"bfs-ss/auto/road/t3":    "mates=6f91a2d2b2f2c063 card=510 it=174 push=174 pull=0 ph=33 ap=33 lvl=0 path=33 gr=0 rel=0 peak=10@53 rank=6561b130284d7aaf ops=691615c00314eb0d",
	"bfs-graft/push/road/t1": "mates=9f14ca86bae439b3 card=510 it=53 push=53 pull=0 ph=3 ap=33 lvl=0 path=3 gr=2 rel=403 peak=130@2 rank=12d1d6bf4b15f6db ops=1b745470fb5c8394 series=0e830d264d67a166",
	"bfs-graft/push/road/t3": "mates=9f14ca86bae439b3 card=510 it=53 push=53 pull=0 ph=3 ap=33 lvl=0 path=3 gr=2 rel=403 peak=130@2 rank=12d1d6bf4b15f6db ops=1b745470fb5c8394 series=0e830d264d67a166",
	"bfs-graft/pull/road/t1": "mates=9f14ca86bae439b3 card=510 it=53 push=0 pull=53 ph=3 ap=33 lvl=0 path=3 gr=2 rel=403 peak=130@2 rank=b3e760b943c64c42 ops=2d2c930f9b15238d series=ef68b4ff220fba28",
	"bfs-graft/pull/road/t3": "mates=9f14ca86bae439b3 card=510 it=53 push=0 pull=53 ph=3 ap=33 lvl=0 path=3 gr=2 rel=403 peak=130@2 rank=b3e760b943c64c42 ops=2d2c930f9b15238d series=ef68b4ff220fba28",
	"bfs-graft/auto/road/t1": "mates=9f14ca86bae439b3 card=510 it=53 push=53 pull=0 ph=3 ap=33 lvl=0 path=3 gr=2 rel=403 peak=130@2 rank=c22c947dce05e14f ops=26bc70e8aba14d50 series=f1f02125c6acac2a",
	"bfs-graft/auto/road/t3": "mates=9f14ca86bae439b3 card=510 it=53 push=52 pull=1 ph=3 ap=33 lvl=0 path=3 gr=2 rel=403 peak=130@2 rank=821cf9b3cc5ad1c9 ops=26ce540a2139194a series=bd12e25d9a2bf85b",
}
