package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"mcmdist/internal/core"
	"mcmdist/internal/mpi"
	"mcmdist/internal/obs"
	"mcmdist/internal/spmat"

	// Register the TCP backend so Profile can select it.
	_ "mcmdist/internal/mpi/tcpnet"
)

// CommProfile is one op category's exact communication counters: message
// count, words moved, and local work performed.
type CommProfile struct {
	Msgs  int64 `json:"msgs"`
	Words int64 `json:"words"`
	Work  int64 `json:"work"`
	// WordsEnc is the delta-varint encoded counterpart of Words, metered
	// when the solve runs with compression; zero otherwise.
	WordsEnc int64 `json:"words_enc,omitempty"`
}

// SolveProfile is the machine-readable summary of one measured solve — the
// payload behind cmd/bench -json. Wall clocks are host seconds (the
// simulation really runs); communication counters are exact; modeled
// seconds come from the same alpha-beta model as the figures.
type SolveProfile struct {
	Matrix string `json:"matrix"`
	Scale  int    `json:"scale"`
	// Transport names the backend the measured solve ran on: "inproc"
	// (every rank a goroutine of one world) or "tcp" (loopback sockets,
	// one endpoint per rank, all hosted by this process).
	Transport string `json:"transport"`
	Procs     int    `json:"procs"`
	Threads   int    `json:"threads"`
	// Engine is the concrete matching engine the solve ran (the resolved
	// choice even when the configuration asked for "auto"; docs/ENGINES.md).
	Engine          string `json:"engine"`
	Cardinality     int    `json:"cardinality"`
	InitCardinality int    `json:"init_cardinality"`
	Phases          int    `json:"phases"`
	Iterations      int    `json:"iterations"`
	// Direction is the SpMV kernel policy the solve ran under ("push",
	// "pull", "auto") and PushIterations/PullIterations how the
	// iterations actually split; Compress whether the wire codec was on.
	Direction      string `json:"direction"`
	PushIterations int    `json:"push_iterations"`
	PullIterations int    `json:"pull_iterations"`
	Compress       bool   `json:"compress"`
	// WordsOnWire is the raw collective volume summed over ranks and
	// WordsOnWireEncoded its delta-varint encoded counterpart (zero with
	// compression off) — the raw-vs-encoded wire ledger.
	WordsOnWire        int64   `json:"words_on_wire"`
	WordsOnWireEncoded int64   `json:"words_on_wire_encoded"`
	WallSeconds        float64 `json:"wall_seconds"`
	ModeledSeconds     float64 `json:"modeled_seconds"`
	// CommWallSeconds is the total request-in-flight communication time
	// summed over ranks; CommExposedSeconds is the part the ranks actually
	// spent blocked in Wait. Their gap, expressed as CommHiddenFraction
	// (1 - exposed/total), is the latency the split-phase schedules hide
	// behind local computation. With -no-overlap the fraction is ~0.
	CommWallSeconds    float64                `json:"comm_wall_seconds"`
	CommExposedSeconds float64                `json:"comm_exposed_seconds"`
	CommHiddenFraction float64                `json:"comm_hidden_fraction"`
	OverlapDisabled    bool                   `json:"overlap_disabled"`
	OpWallSeconds      map[string]float64     `json:"op_wall_seconds"`
	OpComm             map[string]CommProfile `json:"op_comm"`
	PerRank            []CommProfile          `json:"per_rank"`
	PoolUtilization    float64                `json:"pool_utilization"`
	PoolRegions        int64                  `json:"pool_regions"`
	PoolInline         int64                  `json:"pool_inline"`
	AllocBytes         uint64                 `json:"alloc_bytes"`
	Mallocs            uint64                 `json:"mallocs"`
	HostCPUs           int                    `json:"host_cpus"`
	// PeakFrontier is the largest column frontier any iteration entered and
	// PeakFrontierIteration when it happened — present even when the full
	// time-series was not recorded.
	PeakFrontier          int `json:"peak_frontier"`
	PeakFrontierIteration int `json:"peak_frontier_iteration"`
	// TimeSeries is the cross-rank merged per-iteration time-series (one
	// entry per BFS iteration), present when the profile ran observed
	// (Profile with a time-series-recording collector).
	TimeSeries []obs.IterSample `json:"time_series,omitempty"`
	// TraceFile and SeriesFile name the artifacts the bench driver wrote
	// alongside this profile (Perfetto trace JSON, time-series CSV).
	TraceFile  string `json:"trace_file,omitempty"`
	SeriesFile string `json:"series_file,omitempty"`
}

// Profile runs one solve of the named suite matrix under cfg — the bench's
// configuration as given, recording into cfg.Obs when it is set — on the
// named transport backend, and reports everything a tooling consumer wants
// from it: measured host wall clock overall and per op category, exact
// communication meters, worker-pool utilization, the heap traffic of the
// solve (allocation bytes and mallocs across all ranks, matrix generation
// excluded), and the merged time-series when cfg.Obs records one.
func Profile(cfg core.Config, transport, name string, scale int) SolveProfile {
	a := suiteMatrix(name, scale)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res := runOnBackend(transport, a, cfg)
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)

	p := SolveProfile{
		Matrix:          name,
		Scale:           scale,
		Transport:       transport,
		Procs:           res.Procs,
		Threads:         res.Threads,
		Engine:          res.Stats.Engine,
		Cardinality:     res.Stats.Cardinality,
		InitCardinality: res.Stats.InitCardinality,
		Phases:          res.Stats.Phases,
		Iterations:      res.Stats.Iterations,
		Direction:       cfg.Direction.String(),
		PushIterations:  res.Stats.PushIterations,
		PullIterations:  res.Stats.PullIterations,
		Compress:        cfg.Compress,
		WallSeconds:     wall,
		ModeledSeconds:  modeledTime(res, cfg.Threads),
		OpWallSeconds:   make(map[string]float64, len(res.Stats.Wall)),
		OpComm:          make(map[string]CommProfile, len(res.Stats.Meter)),
		PoolUtilization: res.Stats.Threading.Utilization(),
		PoolRegions:     res.Stats.Threading.Regions,
		PoolInline:      res.Stats.Threading.Inline,
		AllocBytes:      after.TotalAlloc - before.TotalAlloc,
		Mallocs:         after.Mallocs - before.Mallocs,
		HostCPUs:        runtime.NumCPU(),
	}
	for op, d := range res.Stats.Wall {
		p.OpWallSeconds[string(op)] = d.Seconds()
	}
	for op, m := range res.Stats.Meter {
		p.OpComm[string(op)] = CommProfile{Msgs: m.Msgs, Words: m.Words, Work: m.Work, WordsEnc: m.WordsEnc}
	}
	for _, m := range res.PerRank {
		p.PerRank = append(p.PerRank, CommProfile{Msgs: m.Msgs, Words: m.Words, Work: m.Work, WordsEnc: m.WordsEnc})
		p.WordsOnWire += m.Words
		p.WordsOnWireEncoded += m.WordsEnc
	}
	var total, exposed time.Duration
	for _, ct := range res.PerRankComm {
		total += ct.Total
		exposed += ct.Exposed
	}
	p.CommWallSeconds = total.Seconds()
	p.CommExposedSeconds = exposed.Seconds()
	if total > 0 {
		p.CommHiddenFraction = 1 - exposed.Seconds()/total.Seconds()
	}
	p.OverlapDisabled = cfg.DisableOverlap
	p.PeakFrontier = res.Stats.PeakFrontier
	p.PeakFrontierIteration = res.Stats.PeakFrontierIteration
	p.TimeSeries = cfg.Obs.Series()
	return p
}

// runOnBackend runs one solve on the named transport backend. The
// in-process backend is the plain run(); any other backend builds its full
// endpoint set in this process (the loopback deployment), drives every
// endpoint concurrently, and merges the per-endpoint observations — each
// process sees only its own ranks' meters and stats, so the merged view is
// reassembled exactly the way a multi-process harness would.
//
// When the solve runs observed, each endpoint gets its own collector —
// the caller's goes to the endpoint hosting rank 0, every other endpoint
// a fresh sibling — so the run exercises the real observation-shipping
// protocol and the caller's collector ends up holding the merged world,
// exactly as the coordinator of a multi-process deployment would.
func runOnBackend(transport string, a *spmat.CSC, cfg core.Config) *core.Result {
	if transport == "inproc" {
		return run(cfg, a, cfg)
	}
	eps, err := mpi.NewTransportSet(transport, cfg.Procs)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	results := make([]*core.Result, len(eps))
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for i, ep := range eps {
		cfgI := cfg
		if cfg.Obs != nil && !slices.Contains(ep.LocalRanks(), 0) {
			cfgI.Obs = cfg.Obs.Sibling(cfg.Procs)
		}
		wg.Add(1)
		go func(i int, ep mpi.Transport, cfgI core.Config) {
			defer wg.Done()
			results[i], errs[i] = core.SolveOn(ep, a, cfgI)
		}(i, ep, cfgI)
	}
	wg.Wait()
	err = mpi.CloseAll(eps)
	for _, e := range errs {
		if err == nil {
			err = e
		}
	}
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	res := results[0]
	for i, r := range results[1:] {
		res.Stats.MergeMax(r.Stats)
		for _, rank := range eps[i+1].LocalRanks() {
			res.PerRank[rank] = r.PerRank[rank]
			res.PerRankComm[rank] = r.PerRankComm[rank]
		}
	}
	return res
}
