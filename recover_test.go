package mcmdist

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"mcmdist/internal/mpi"
	"mcmdist/internal/rt"
)

func TestSolveRecoverableSession(t *testing.T) {
	g := mustRMAT(t, G500, 9, 4, 13)
	dg, err := Distribute(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer dg.Close()
	opts := Options{Init: GreedyInit}
	clean, _, err := dg.MaximumMatching(opts)
	if err != nil {
		t.Fatal(err)
	}

	// Clean run through the recovery plane: one attempt, checkpoints taken,
	// same matching.
	m, st, rec, err := dg.SolveRecoverable(opts, RecoveryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VerifyMaximum(m); err != nil {
		t.Fatal(err)
	}
	if m.Cardinality() != clean.Cardinality() {
		t.Fatalf("recoverable solve found %d, plain solve %d", m.Cardinality(), clean.Cardinality())
	}
	if rec.Attempts != 1 || rec.Retries != 0 {
		t.Fatalf("clean run recovery %+v", rec)
	}
	if rec.Checkpoints == 0 || rec.CheckpointBytes == 0 {
		t.Fatalf("no checkpoints on a recoverable run: %+v", rec)
	}
	if st.Checkpoints != rec.Checkpoints || st.CheckpointBytes != rec.CheckpointBytes {
		t.Fatalf("stats/recovery checkpoint accounting disagree: %+v vs %+v", st, rec)
	}

	// Injected crash: one retry, identical matching, budget spans the call.
	m2, _, rec2, err := dg.SolveRecoverable(opts, RecoveryPolicy{
		Fault: &FaultSpec{CrashRank: 1, CrashAtCollective: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Attempts != 2 || rec2.Retries != 1 {
		t.Fatalf("faulted run recovery %+v", rec2)
	}
	for i := range clean.MateR {
		if m2.MateR[i] != clean.MateR[i] {
			t.Fatalf("MateR[%d] = %d after recovery, clean %d", i, m2.MateR[i], clean.MateR[i])
		}
	}
	for j := range clean.MateC {
		if m2.MateC[j] != clean.MateC[j] {
			t.Fatalf("MateC[%d] = %d after recovery, clean %d", j, m2.MateC[j], clean.MateC[j])
		}
	}

	// The session stays usable after a faulted solve (contexts rebind).
	m3, _, err := dg.MaximumMatching(opts)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Cardinality() != clean.Cardinality() {
		t.Fatalf("post-recovery solve found %d, want %d", m3.Cardinality(), clean.Cardinality())
	}
}

// TestRecoverableThenWarmSolve: the ranks of an attempt that crashes
// unwind, and the retry's Bind takes back the solve-lifetime vectors they
// held, so the retry and the plain solves that follow on the same
// DistributedGraph run on reclaimed storage. Every one of them must match
// the same call on a fresh DistributedGraph whose contexts keep nothing
// (rt.NewDisabled), bit for bit, for every engine, on goroutine ranks and
// over loopback sockets. The crash points fall inside the engine's phases,
// after the run has held its vectors; the RMA failure fires inside the
// path-parallel augmentation, whose windows expose the held mate vectors
// to remote writes.
func TestRecoverableThenWarmSolve(t *testing.T) {
	g := mustRMAT(t, G500, 9, 4, 13)
	dg, err := Distribute(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer dg.Close()
	crashAt := func(n int) FaultSpec { return FaultSpec{CrashRank: 1, CrashAtCollective: n} }
	for _, tc := range []struct {
		opts      Options
		fault     FaultSpec
		transport string
	}{
		{Options{Engine: "bfs", Init: DynamicMindegreeInit, Threads: 2}, crashAt(60), ""},
		{Options{Engine: "bfs-ss", Init: NoInit}, crashAt(100), ""},
		{Options{Engine: "bfs-ss", Init: GreedyInit}, crashAt(160), ""},
		{Options{Engine: "bfs-ss", Init: KarpSipserInit}, crashAt(160), ""},
		{Options{Engine: "bfs", Init: DynamicMindegreeInit, Threads: 2}, crashAt(60), "tcp"},
		{Options{Engine: "bfs-ss", Init: NoInit}, crashAt(100), "tcp"},
		{Options{Engine: "bfs", Init: NoInit, Augment: PathParallel},
			FaultSpec{RMAFailRank: 1, RMAFailAt: 40}, "tcp"},
	} {
		name := tc.opts.Engine + "/" + tc.opts.Init.String() + "/" + tc.transport
		pol := RecoveryPolicy{CheckpointEvery: 1, Fault: &tc.fault, Transport: tc.transport}
		fresh, err := Distribute(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		for r := range fresh.ctxs {
			fresh.ctxs[r] = rt.NewDisabled(nil)
		}
		want, _, err := fresh.MaximumMatching(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		// A resumed solve starts its engine state afresh, so its recovered
		// matching need not be the clean one: the reference is the same
		// recoverable solve.
		wantRec, _, _, err := fresh.SolveRecoverable(tc.opts, pol)
		fresh.Close()
		if err != nil {
			t.Fatal(err)
		}
		same := func(m, want *Matching) bool {
			return slices.Equal(m.MateR, want.MateR) && slices.Equal(m.MateC, want.MateC)
		}
		m, _, rec, err := dg.SolveRecoverable(tc.opts, pol)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rec.Attempts != 2 {
			t.Fatalf("%s: the fault never fired (%d attempts)", name, rec.Attempts)
		}
		if !same(m, wantRec) {
			t.Fatalf("%s: the retry on reclaimed storage differs from a fresh DistributedGraph", name)
		}
		for i := 0; i < 2; i++ {
			got, _, err := dg.MaximumMatching(tc.opts)
			if err != nil {
				t.Fatalf("%s: warm solve %d: %v", name, i, err)
			}
			if !same(got, want) {
				t.Fatalf("%s: warm solve %d after a crashed attempt differs from a fresh DistributedGraph", name, i)
			}
		}
	}
}

// TestSolveRecoverableObserve pins that SolveRecoverable honours
// Options.Observe: a traced solve that crashes once and resumes returns the
// final attempt's spans, none dropped, and an untraced one returns no
// report.
func TestSolveRecoverableObserve(t *testing.T) {
	g := mustRMAT(t, G500, 9, 4, 13)
	dg, err := Distribute(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer dg.Close()
	pol := RecoveryPolicy{Fault: &FaultSpec{CrashRank: 1, CrashAtCollective: 8}}
	_, st, rec, err := dg.SolveRecoverable(Options{Init: GreedyInit, Observe: &Observe{Spans: true}}, pol)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Attempts != 2 {
		t.Fatalf("want one crash and one resume, got %+v", rec)
	}
	if st.Obs == nil {
		t.Fatal("traced recoverable solve returned no observations")
	}
	if d := st.Obs.DroppedSpans(); d != 0 {
		t.Fatalf("%d spans dropped", d)
	}
	var buf bytes.Buffer
	if err := st.Obs.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	expands := 0
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" && ev.Name == "spmv.expand" {
			expands++
		}
	}
	if expands == 0 {
		t.Fatalf("trace of %d events holds no spmv.expand span", len(tf.TraceEvents))
	}

	_, st, _, err = dg.SolveRecoverable(Options{Init: GreedyInit}, pol)
	if err != nil {
		t.Fatal(err)
	}
	if st.Obs != nil {
		t.Fatal("untraced recoverable solve returned observations")
	}
}

func TestSolveRecoverableSurfacesExhaustedRetries(t *testing.T) {
	g := mustRMAT(t, ER, 8, 4, 5)
	dg, err := Distribute(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer dg.Close()
	_, _, rec, err := dg.SolveRecoverable(Options{Init: GreedyInit}, RecoveryPolicy{
		MaxRetries: 1,
		Backoff:    time.Millisecond,
		Fault:      &FaultSpec{CrashRank: 0, CrashAtCollective: 2, MaxFires: 100},
	})
	if err == nil {
		t.Fatal("inexhaustible fault did not surface")
	}
	if !errors.Is(err, mpi.ErrInjectedCrash) {
		t.Fatalf("error does not unwrap to the injected crash: %v", err)
	}
	if rec == nil || rec.Attempts != 2 {
		t.Fatalf("recovery report %+v", rec)
	}
}

func TestGuardConvertsPanics(t *testing.T) {
	// Plain panic value → *PanicError with a stack.
	f := func() (err error) {
		defer guard(&err)
		panic("boom")
	}
	err := f()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("guard returned %T, want *PanicError", err)
	}
	if pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError not populated: %+v", pe)
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error message %q lacks the panic value", err)
	}

	// Rank-attributed panics pass through untouched.
	want := &mpi.RankError{Rank: 3, Op: "barrier", Err: errors.New("x")}
	f2 := func() (err error) {
		defer guard(&err)
		panic(want)
	}
	var re *mpi.RankError
	if err := f2(); !errors.As(err, &re) || re != want {
		t.Fatalf("RankError did not pass through: %v", err)
	}

	// No panic → no error overwrite.
	f3 := func() (err error) {
		defer guard(&err)
		return nil
	}
	if err := f3(); err != nil {
		t.Fatal(err)
	}
}

func TestLibraryBoundaryContainsPanics(t *testing.T) {
	// A nil graph would crash Distribute on a field access; the boundary
	// guard must turn that into an error instead of killing the process.
	if _, err := Distribute(nil, 4); err == nil {
		t.Fatal("Distribute(nil) returned no error")
	}

	// A corrupted distribution makes every rank panic inside the solve; the
	// simulator contains those into rank errors and the API returns one.
	g := mustRMAT(t, ER, 7, 4, 9)
	dg, err := Distribute(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer dg.Close()
	dg.blocks[0][0] = nil
	_, _, err = dg.MaximumMatching(Options{Init: GreedyInit})
	if err == nil {
		t.Fatal("solve over a corrupted distribution returned no error")
	}
	var re *mpi.RankError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T (%v), want a rank-attributed error", err, err)
	}
}

// TestSolveRecoverableSurfacesGenuinePanicOnce pins the recovery loop's
// classification on the in-process backend: a genuine panic is not
// mpi.Restartable, so it surfaces as the rank error after one attempt
// instead of being replayed MaxRetries more times.
func TestSolveRecoverableSurfacesGenuinePanicOnce(t *testing.T) {
	g := mustRMAT(t, ER, 7, 4, 9)
	dg, err := Distribute(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer dg.Close()
	dg.blocks[0][0] = nil
	_, _, rec, err := dg.SolveRecoverable(Options{Init: GreedyInit}, RecoveryPolicy{})
	var re *mpi.RankError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T (%v), want a rank-attributed error", err, err)
	}
	if rec == nil || rec.Attempts != 1 || rec.Retries != 0 {
		t.Fatalf("a genuine panic was retried: recovery %+v", rec)
	}
}

func TestSolveRecoverableTCPTransport(t *testing.T) {
	g := mustRMAT(t, G500, 8, 4, 17)
	dg, err := Distribute(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer dg.Close()
	opts := Options{Init: GreedyInit}
	clean, _, err := dg.MaximumMatching(opts)
	if err != nil {
		t.Fatal(err)
	}

	// Clean solve over the tcp backend: the recovery plane provisions a
	// loopback TCP world per attempt and the result matches the in-process
	// solve exactly.
	m, _, rec, err := dg.SolveRecoverable(opts, RecoveryPolicy{Transport: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.VerifyMaximum(m); err != nil {
		t.Fatal(err)
	}
	if m.Cardinality() != clean.Cardinality() || rec.Attempts != 1 {
		t.Fatalf("tcp clean run: cardinality %d (clean %d), recovery %+v", m.Cardinality(), clean.Cardinality(), rec)
	}

	// Injected link drop: one retry, and the recovered matching is
	// bit-identical to the clean one.
	m2, _, rec2, err := dg.SolveRecoverable(opts, RecoveryPolicy{
		Transport: "tcp",
		Fault:     &FaultSpec{DropFrom: 0, DropTo: 1, DropAtFrame: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Attempts != 2 || rec2.Retries != 1 {
		t.Fatalf("dropped-link run recovery %+v", rec2)
	}
	for i := range clean.MateR {
		if m2.MateR[i] != clean.MateR[i] {
			t.Fatalf("MateR[%d] = %d after tcp recovery, clean %d", i, m2.MateR[i], clean.MateR[i])
		}
	}
	for j := range clean.MateC {
		if m2.MateC[j] != clean.MateC[j] {
			t.Fatalf("MateC[%d] = %d after tcp recovery, clean %d", j, m2.MateC[j], clean.MateC[j])
		}
	}

	// The session stays usable afterwards, on the default backend.
	m3, _, err := dg.MaximumMatching(opts)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Cardinality() != clean.Cardinality() {
		t.Fatalf("post-tcp-recovery solve found %d, want %d", m3.Cardinality(), clean.Cardinality())
	}
}

// TestFaultSpecBudgetPerCall pins the public spec's per-call budget: one
// FaultSpec with a link drop, reused for two tcp SolveRecoverable calls,
// costs exactly one retry in each — every call copies it into a fresh plan
// — and both recover the clean matching.
func TestFaultSpecBudgetPerCall(t *testing.T) {
	g := mustRMAT(t, G500, 8, 4, 17)
	dg, err := Distribute(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer dg.Close()
	opts := Options{Init: GreedyInit}
	clean, _, err := dg.MaximumMatching(opts)
	if err != nil {
		t.Fatal(err)
	}
	pol := RecoveryPolicy{Transport: "tcp", Fault: &FaultSpec{DropFrom: 0, DropTo: 1, DropAtFrame: 4}}
	for call := 0; call < 2; call++ {
		m, _, rec, err := dg.SolveRecoverable(opts, pol)
		if err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
		if rec.Attempts != 2 || rec.Retries != 1 {
			t.Fatalf("call %d: recovery %+v, want one retry", call, rec)
		}
		if !slices.Equal(m.MateR, clean.MateR) || !slices.Equal(m.MateC, clean.MateC) {
			t.Fatalf("call %d: recovered mates differ from the clean solve", call)
		}
	}
}

func TestSolveRecoverableRejectsBadTransport(t *testing.T) {
	g := mustRMAT(t, ER, 7, 4, 3)
	dg, err := Distribute(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer dg.Close()
	if _, _, _, err := dg.SolveRecoverable(Options{}, RecoveryPolicy{Transport: "carrier-pigeon"}); err == nil {
		t.Fatal("unknown transport accepted")
	}
	if _, _, _, err := dg.SolveRecoverable(Options{}, RecoveryPolicy{Fault: &FaultSpec{DropAtFrame: 1}}); err == nil {
		t.Fatal("network faults accepted on the in-process backend")
	}
}
