package distjob

// In-process integration test of the full recovery protocol: a real
// Supervise coordinator and real WorkLoop workers, wired over loopback TCP,
// with a deterministic network fault killing generation 0. Everything a
// multi-process deployment does — rendezvous, a spec with generation and
// checkpoint, world teardown, re-listen, rejoin — happens here, just with
// goroutines standing in for processes.

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mcmdist/internal/core"
	"mcmdist/internal/mpi"
	"mcmdist/internal/mpi/tcpnet"
	"mcmdist/internal/obs"
)

// listen opens the coordinator's rendezvous on a kernel-chosen loopback
// port; Supervise pins that address for every generation.
func listen(t *testing.T, opts tcpnet.Options) *tcpnet.Rendezvous {
	t.Helper()
	rv, err := tcpnet.Listen("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	return rv
}

// solveInproc is the clean reference: the spec solved on an in-process
// world.
func solveInproc(t *testing.T, s *Spec) *core.Result {
	t.Helper()
	a, err := s.BuildMatrix()
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := s.Solve(nil, a)
	if err != nil {
		t.Fatalf("clean reference solve: %v", err)
	}
	return res
}

// TestSuperviseRecoversFromDroppedLink runs a 3-rank supervised solve where
// worker rank 1's link to rank 2 drops mid-solve in generation 0. The
// supervisor must run exactly one restart, every worker must rejoin, and the
// recovered matching must be bit-identical to a clean in-process solve of
// the same spec.
func TestSuperviseRecoversFromDroppedLink(t *testing.T) {
	const procs = 4
	mkSpec := func() *Spec {
		return &Spec{RMAT: "g500", Scale: 7, Config: core.Config{
			Seed: 11, Procs: procs, Init: core.InitGreedy, Permute: true, CheckpointEvery: 1}}
	}
	clean := solveInproc(t, mkSpec())

	// One injector for the faulty worker, shared across its rejoins: the
	// MaxFires budget (default 1) makes generation 0 fault and generation 1
	// run clean.
	fault := &mpi.FaultPlan{DropFrom: 1, DropTo: 2, DropAtFrame: 3}

	rv := listen(t, tcpnet.Options{})
	addr := rv.Addr()
	var (
		res    *core.Result
		stats  *core.RecoveryStats
		supErr error
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, stats, supErr = Supervise(rv, mkSpec(), core.RecoveryPolicy{
			Backoff: 10 * time.Millisecond,
			Log:     t.Logf,
		})
	}()

	workerRes := make([]*core.Result, procs)
	workerErr := make([]error, procs)
	for rank := 1; rank < procs; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var f *mpi.FaultPlan
			if rank == 1 {
				f = fault
			}
			workerRes[rank], workerErr[rank] = WorkLoop(addr, rank, tcpnet.Options{}, f, t.Logf)
		}(rank)
	}
	wg.Wait()

	if supErr != nil {
		t.Fatalf("supervisor failed: %v (stats %+v)", supErr, stats)
	}
	if stats.Attempts != 2 || stats.Retries != 1 {
		t.Fatalf("generations %d restarts %d, want 2/1 (errors: %v)", stats.Attempts, stats.Retries, stats.Errors)
	}
	if len(stats.Errors) != 1 {
		t.Fatalf("%d generation errors recorded, want 1: %v", len(stats.Errors), stats.Errors)
	}
	if fault.Fired() != 1 {
		t.Fatalf("fault fired %d times, want exactly 1", fault.Fired())
	}
	for rank := 1; rank < procs; rank++ {
		if workerErr[rank] != nil {
			t.Fatalf("worker %d failed: %v", rank, workerErr[rank])
		}
	}

	if res.Stats.Cardinality != clean.Stats.Cardinality {
		t.Fatalf("recovered cardinality %d, clean %d", res.Stats.Cardinality, clean.Stats.Cardinality)
	}
	for i := range clean.Matching.MateR {
		if res.Matching.MateR[i] != clean.Matching.MateR[i] {
			t.Fatalf("MateR[%d] = %d, clean %d", i, res.Matching.MateR[i], clean.Matching.MateR[i])
		}
	}
	// Mate vectors are allgathered, so the workers' final generation holds
	// the same matching the supervisor reports.
	for rank := 1; rank < procs; rank++ {
		if workerRes[rank].Stats.Cardinality != clean.Stats.Cardinality {
			t.Fatalf("worker %d cardinality %d, clean %d", rank, workerRes[rank].Stats.Cardinality, clean.Stats.Cardinality)
		}
	}
}

// TestSuperviseCleanRunNoRestart pins the no-fault path: one generation, no
// restarts, result identical to the in-process reference.
func TestSuperviseCleanRunNoRestart(t *testing.T) {
	const procs = 4
	mkSpec := func() *Spec {
		return &Spec{RMAT: "er", Scale: 6, Config: core.Config{
			Seed: 4, Procs: procs, Init: core.InitKarpSipser, Permute: true, CheckpointEvery: 1}}
	}
	clean := solveInproc(t, mkSpec())

	rv := listen(t, tcpnet.Options{})
	addr := rv.Addr()
	var (
		res    *core.Result
		stats  *core.RecoveryStats
		supErr error
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, stats, supErr = Supervise(rv, mkSpec(), core.RecoveryPolicy{})
	}()
	workerRes := make([]*core.Result, procs)
	workerErr := make([]error, procs)
	for rank := 1; rank < procs; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			workerRes[rank], workerErr[rank] = WorkLoop(addr, rank, tcpnet.Options{}, nil, nil)
		}(rank)
	}
	wg.Wait()

	if supErr != nil {
		t.Fatalf("supervisor failed: %v", supErr)
	}
	if stats.Attempts != 1 || stats.Retries != 0 || len(stats.Errors) != 0 {
		t.Fatalf("clean run stats %+v, want one generation, no restarts", stats)
	}
	for rank := 1; rank < procs; rank++ {
		if workerErr[rank] != nil {
			t.Fatalf("worker %d failed: %v", rank, workerErr[rank])
		}
		if workerRes[rank].Stats.Cardinality != clean.Stats.Cardinality {
			t.Fatalf("worker %d cardinality %d, clean %d", rank, workerRes[rank].Stats.Cardinality, clean.Stats.Cardinality)
		}
	}
	if res.Stats.Cardinality != clean.Stats.Cardinality {
		t.Fatalf("supervisor cardinality %d, clean %d", res.Stats.Cardinality, clean.Stats.Cardinality)
	}
}

// TestSuperviseFlightRecorder runs a supervised solve whose generation 0
// dies of a dropped link, with the flight recorder and the observability
// planes on. The failed generation must leave decodable dumps in the
// flight directory — the supervisor's post-mortem bundle — and the
// recovered generation's collector must hold the merged whole-world
// observation.
func TestSuperviseFlightRecorder(t *testing.T) {
	const procs = 4
	dir := t.TempDir()
	mkSpec := func() *Spec {
		return &Spec{
			RMAT: "g500", Scale: 7,
			Config: core.Config{
				Seed: 11, Procs: procs, Init: core.InitGreedy, Permute: true, CheckpointEvery: 1,
				FlightDir: dir},
			ObsSpans: true, ObsSeries: true,
		}
	}
	fault := &mpi.FaultPlan{DropFrom: 1, DropTo: 2, DropAtFrame: 3}

	rv := listen(t, tcpnet.Options{})
	addr := rv.Addr()
	var (
		stats  *core.RecoveryStats
		supErr error
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, stats, supErr = Supervise(rv, mkSpec(), core.RecoveryPolicy{
			Backoff: 10 * time.Millisecond,
			Log:     t.Logf,
		})
	}()
	for rank := 1; rank < procs; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var f *mpi.FaultPlan
			if rank == 1 {
				f = fault
			}
			WorkLoop(addr, rank, tcpnet.Options{}, f, t.Logf)
		}(rank)
	}
	wg.Wait()

	if supErr != nil {
		t.Fatalf("supervisor failed: %v (stats %+v)", supErr, stats)
	}
	if stats.Retries != 1 {
		t.Fatalf("restarts %d, want 1 (errors: %v)", stats.Retries, stats.Errors)
	}

	// The failed generation left dumps; every one decodes, is stamped with
	// generation 0, and carries a cause plus its rank's final span.
	if len(stats.FlightDumps) == 0 {
		t.Fatal("no flight dumps after a failed generation")
	}
	withSpans := 0
	for _, path := range stats.FlightDumps {
		d, err := obs.ReadFlightDump(path)
		if err != nil {
			t.Fatalf("dump %s does not decode: %v", path, err)
		}
		if d.Gen != 0 {
			t.Errorf("dump %s from generation %d, want 0", path, d.Gen)
		}
		if d.Cause == "" {
			t.Errorf("dump %s has no cause", path)
		}
		if len(d.Ranks) == 0 {
			t.Errorf("dump %s carries no ranks", path)
			continue
		}
		if _, ok := d.LastSpan(d.Ranks[0].Rank); ok {
			withSpans++
		}
		if want := filepath.Join(dir, "flight-g0-r"); !strings.HasPrefix(path, want) {
			t.Errorf("dump path %s does not match the versioned naming %s*", path, want)
		}
	}
	// A rank that aborted before finishing any span dumps an empty tail —
	// legal — but the world died mid-solve, so somebody was mid-flight.
	if withSpans == 0 {
		t.Error("no dump carries a final span; the flight tails are all empty")
	}

	// The recovered generation's collector holds the merged world: spans
	// and samples for every rank, on the supervisor's side alone.
	if stats.Obs == nil {
		t.Fatal("no collector on RecoveryStats despite obs fields set")
	}
	for r := 0; r < procs; r++ {
		if len(stats.Obs.Tracer(r).Spans()) == 0 {
			t.Errorf("supervisor collector has no spans for rank %d", r)
		}
		if len(stats.Obs.Recorder(r).Samples()) == 0 {
			t.Errorf("supervisor collector has no samples for rank %d", r)
		}
	}
}

// TestSuperviseTerminalErrorSurfacesImmediately pins that a non-restartable
// failure is not retried into a restart storm: a rendezvous that never fills
// (no worker ever dials) is not a transport-plane death of a running world,
// so the supervisor surfaces it after a single generation.
func TestSuperviseTerminalErrorSurfacesImmediately(t *testing.T) {
	spec := &Spec{RMAT: "g500", Scale: 6, Config: core.Config{
		Seed: 1, Procs: 4, Init: core.InitDynMinDegree, Permute: true, CheckpointEvery: 1}}
	opts := tcpnet.Options{DialTimeout: 300 * time.Millisecond}
	_, stats, err := Supervise(listen(t, opts), spec, core.RecoveryPolicy{
		MaxRetries: 3,
		Backoff:    time.Millisecond,
	})
	if err == nil {
		t.Fatal("supervisor succeeded with no workers")
	}
	if stats.Attempts != 1 || stats.Retries != 0 {
		t.Fatalf("empty rendezvous ran %d generations, %d restarts — want 1/0 (terminal)",
			stats.Attempts, stats.Retries)
	}
}
