package core

// Tests for whole-world observability collection over the tcp backend:
// traced and untraced solves stay bit-identical, the coordinator's
// collector ends up holding every rank's spans and samples after the
// solve-end shipping, its registry reports world-aggregated counters equal
// to the in-process (already world-summed) values, and injected slow-link
// latency shows up in the per-link heartbeat RTT histograms.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"mcmdist/internal/mpi"
	"mcmdist/internal/mpi/tcpnet"
	"mcmdist/internal/obs"
	"mcmdist/internal/rmat"
)

// solveLoopbackCollected runs one solve over loopback TCP with a separate
// collector per endpoint — the real multi-process shape, exercising the OBS
// shipping and the coordinator-side merge — and returns the per-endpoint
// results and collectors, indexed by rank.
func solveLoopbackCollected(t *testing.T, procs int, cfg Config, netOpts tcpnet.Options) ([]*Result, []*obs.Collector) {
	t.Helper()
	eps, err := tcpnet.LoopbackOpts(procs, nil, netOpts)
	if err != nil {
		t.Fatalf("loopback endpoints: %v", err)
	}
	a := rmat.MustGenerate(rmat.G500, 7, 4, 21)
	results := make([]*Result, procs)
	cols := make([]*obs.Collector, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for i, ep := range eps {
		cfgI := cfg
		cfgI.Obs = obs.NewCollector(procs, obs.Options{
			Spans: true, TimeSeries: true, Metrics: obs.NewRegistry(),
		})
		r := ep.LocalRanks()[0]
		cols[r] = cfgI.Obs
		wg.Add(1)
		go func(i, r int, ep mpi.Transport, cfgI Config) {
			defer wg.Done()
			results[r], errs[i] = SolveOn(ep, a, cfgI)
		}(i, r, ep, cfgI)
	}
	wg.Wait()
	if err := mpi.CloseAll(eps); err != nil {
		t.Errorf("closing endpoints: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("endpoint %d solve: %v", i, err)
		}
	}
	return results, cols
}

func TestObsCollectionTCPBitIdentity(t *testing.T) {
	const procs = 4
	cfg := Config{Procs: procs, Seed: 3}
	a := rmat.MustGenerate(rmat.G500, 7, 4, 21)

	untraced, err := Solve(a, cfg)
	if err != nil {
		t.Fatalf("untraced oracle: %v", err)
	}

	results, cols := solveLoopbackCollected(t, procs, cfg, tcpnet.Options{
		HeartbeatInterval: 2 * time.Millisecond,
	})

	// Observability plus collection must not perturb the algorithm: every
	// endpoint's mate vectors are bit-identical to the untraced oracle.
	for r, res := range results {
		if want, got := fmt.Sprint(untraced.Matching.MateR), fmt.Sprint(res.Matching.MateR); want != got {
			t.Errorf("rank %d MateR diverges from untraced oracle:\n untraced: %s\n traced:   %s", r, want, got)
		}
		if want, got := fmt.Sprint(untraced.Matching.MateC), fmt.Sprint(res.Matching.MateC); want != got {
			t.Errorf("rank %d MateC diverges from untraced oracle", r)
		}
	}

	// The coordinator's collector now holds the whole world: spans and
	// samples for all ranks, not just rank 0.
	coord := cols[0]
	for r := 0; r < procs; r++ {
		if len(coord.Tracer(r).Spans()) == 0 {
			t.Errorf("coordinator has no spans for rank %d after collection", r)
		}
		if len(coord.Recorder(r).Samples()) == 0 {
			t.Errorf("coordinator has no samples for rank %d after collection", r)
		}
	}
	// A worker's collector keeps covering only its local rank.
	if len(cols[1].Tracer(0).Spans()) != 0 {
		t.Error("worker collector grew rank-0 spans; collection should be coordinator-only")
	}

	// The merged trace declares all ranks and passes the structural checks
	// tracelint applies in CI.
	var buf bytes.Buffer
	if err := coord.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var tf struct {
		OtherData struct {
			Ranks int `json:"ranks"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	if tf.OtherData.Ranks != procs {
		t.Errorf("merged trace declares %d ranks, want %d", tf.OtherData.Ranks, procs)
	}

	// World-aggregated counters: the in-process solve feeds one registry
	// from all ranks, so its counters ARE the world sums; the coordinator's
	// registry must agree after absorbing the workers (the run is
	// deterministic, so volumes are bit-identical across backends).
	inprocCol := obs.NewCollector(procs, obs.Options{TimeSeries: true, Metrics: obs.NewRegistry()})
	cfgIn := cfg
	cfgIn.Obs = inprocCol
	if _, err := Solve(a, cfgIn); err != nil {
		t.Fatalf("inproc metrics solve: %v", err)
	}
	for _, name := range []string{"mcm_comm_words_total", "mcm_comm_msgs_total", "mcm_iterations_total", "mcm_paths_total"} {
		want := inprocCol.Registry().Counter(name, "").Value()
		got := coord.Registry().Counter(name, "").Value()
		if want == 0 {
			t.Errorf("%s: world sum is 0; the assertion is vacuous", name)
		}
		if got != want {
			t.Errorf("%s: coordinator aggregate %d, world sum %d", name, got, want)
		}
	}
	// Sanity on the same property stated as the acceptance criterion: the
	// coordinator's counter equals the sum of the per-process values.
	var sum int64
	for r := 1; r < procs; r++ {
		sum += cols[r].Registry().Counter("mcm_comm_words_total", "").Value()
	}
	coordOwn := inprocCol.Registry().Counter("mcm_comm_words_total", "").Value() - sum
	if got := coord.Registry().Counter("mcm_comm_words_total", "").Value(); got != coordOwn+sum {
		t.Errorf("coordinator words %d != own %d + workers %d", got, coordOwn, sum)
	}
}

func TestHeartbeatRTTSlowLinkVisibility(t *testing.T) {
	const procs = 4
	const slow = 2 * time.Millisecond
	_, cols := solveLoopbackCollected(t, procs, Config{Procs: procs, Seed: 3, Fault: &mpi.FaultPlan{
		Seed: 9, SlowFrom: 0, SlowTo: 1, SlowDelay: slow, SlowEvery: 1,
	}}, tcpnet.Options{
		HeartbeatInterval: 3 * time.Millisecond,
	})
	coord := cols[0]

	// The slow link's RTT histogram must exist on the coordinator and every
	// observation must carry at least the injected delay.
	h := coord.Registry().Histogram("mcm_heartbeat_rtt_seconds_link_0_1", "", nil)
	if h.Count() == 0 {
		t.Fatal("no RTT observations on the slow link 0->1")
	}
	if mean := h.Sum() / float64(h.Count()); mean < slow.Seconds() {
		t.Errorf("slow link mean RTT %.6fs, want >= injected %.6fs", mean, slow.Seconds())
	}

	// Heartbeat RTTs also land as instant events in the world trace, so the
	// injection is visible in Perfetto too — including the workers' links,
	// which arrive through the OBS shipping.
	byName := map[string]int{}
	for _, ev := range coord.Events() {
		byName[ev.Name]++
	}
	if byName["hb.rtt to 1"] == 0 {
		t.Error("no hb.rtt instant events for the slow link")
	}
	if byName["hb.rtt to 0"] == 0 {
		t.Error("no worker-side hb.rtt events arrived; event shipping broken")
	}
}
