package core

// Tests for whole-world observability collection over the tcp backend:
// traced and untraced solves stay bit-identical, the coordinator's
// collector ends up holding every rank's spans and samples after the
// solve-end shipping, the merged samples carry each rank's communication
// volume exactly as the in-process solve records it, and injected slow-link
// latency shows up in the hb.rtt instant events of the merged trace.

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
		cfgI.Obs = obs.NewCollector(procs, obs.Options{Spans: true, TimeSeries: true})
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

	// World aggregation on the time-series: the in-process solve records
	// every rank in one collector, so its per-rank sums are the reference;
	// the coordinator's merged samples must carry the same per-rank message
	// and word volumes (the run is deterministic, so volumes are
	// bit-identical across backends).
	inprocCol := obs.NewCollector(procs, obs.Options{TimeSeries: true})
	cfgIn := cfg
	cfgIn.Obs = inprocCol
	if _, err := Solve(a, cfgIn); err != nil {
		t.Fatalf("inproc time-series solve: %v", err)
	}
	volume := func(samples []obs.IterSample) (msgs, words int64) {
		for _, s := range samples {
			msgs += s.Msgs
			words += s.Words
		}
		return msgs, words
	}
	for r := 0; r < procs; r++ {
		wantMsgs, wantWords := volume(inprocCol.Recorder(r).Samples())
		gotMsgs, gotWords := volume(coord.Recorder(r).Samples())
		if wantMsgs == 0 || wantWords == 0 {
			t.Errorf("rank %d: in-process volume is %d msgs, %d words; the assertion is vacuous", r, wantMsgs, wantWords)
		}
		if gotMsgs != wantMsgs || gotWords != wantWords {
			t.Errorf("rank %d: coordinator's merged samples carry %d msgs, %d words; in-process %d msgs, %d words",
				r, gotMsgs, gotWords, wantMsgs, wantWords)
		}
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

	// Every heartbeat probe the coordinator sent over the slow link 0->1
	// lands as an hb.rtt instant carrying its round trip in ns, and each
	// must include the injected delay. The workers' probes arrive through
	// the OBS shipping, so a worker-side hb.rtt to 0 proves event shipping.
	var slowProbes, workerProbes int
	for _, ev := range coord.Events() {
		switch {
		case ev.Name == "hb.rtt to 1" && ev.Rank == 0:
			slowProbes++
			if ev.Arg < int64(slow) {
				t.Errorf("slow link 0->1 probe RTT %dns, want >= injected %dns", ev.Arg, int64(slow))
			}
		case ev.Name == "hb.rtt to 0":
			workerProbes++
		}
	}
	if slowProbes == 0 {
		t.Fatal("no hb.rtt instant events for the slow link 0->1")
	}
	if workerProbes == 0 {
		t.Error("no worker-side hb.rtt events arrived; event shipping broken")
	}
}
