package mpi_test

// The backend conformance suite: every Transport in backends runs the same
// SPMD programs and is pinned against the in-process oracle — per-rank
// results bit-identical, per-rank meter ledgers (Msgs/Words/Work, per kind)
// bit-identical. The suite is the contract that lets everything above the
// transport seam (core, experiments, cmd) treat backends as interchangeable.
//
// It lives in an external test package so it can import the tcpnet backend
// (which itself imports mpi) without a cycle.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcmdist/internal/mpi"
	"mcmdist/internal/mpi/tcpnet"
)

// backend is one transport the suite pins: its name and the builder of
// every endpoint of a size-rank world on it.
type backend struct {
	name  string
	build func(size int) ([]mpi.Transport, error)
}

// backends lists every transport the suite runs, the in-process oracle
// first.
var backends = []backend{
	{"inproc", func(size int) ([]mpi.Transport, error) { return []mpi.Transport{mpi.NewInproc(size)}, nil }},
	{"tcp", tcpnet.Loopback},
}

// conformanceSizes are the world sizes every program runs at (1 = degenerate
// single-rank world, 3 = odd, 4 = the CI topology).
var conformanceSizes = []int{1, 3, 4}

// backendRun is one backend execution: which world hosted each rank (on
// inproc one world hosts all; on tcp each rank has its own), and each
// endpoint's error keyed by its lowest hosted rank.
type backendRun struct {
	worldOf map[int]*mpi.World
	errOf   map[int]error
}

// runBackend builds every endpoint of a size-rank world on backend b, runs
// fn over all of them concurrently, closes the endpoints, and collects the
// per-rank worlds and per-endpoint errors.
func runBackend(t *testing.T, b backend, size int, mkcfg func() mpi.RunConfig, fn func(c *mpi.Comm) error) *backendRun {
	t.Helper()
	eps, err := b.build(size)
	if err != nil {
		t.Fatalf("building %q endpoints: %v", b.name, err)
	}
	run := &backendRun{worldOf: map[int]*mpi.World{}, errOf: map[int]error{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, ep := range eps {
		wg.Add(1)
		go func(ep mpi.Transport) {
			defer wg.Done()
			w, err := mpi.RunTransport(mkcfg(), ep, fn)
			mu.Lock()
			defer mu.Unlock()
			run.errOf[ep.LocalRanks()[0]] = err
			if w != nil {
				for _, r := range ep.LocalRanks() {
					run.worldOf[r] = w
				}
			}
		}(ep)
	}
	wg.Wait()
	if err := mpi.CloseAll(eps); err != nil {
		t.Errorf("closing %q endpoints: %v", b.name, err)
	}
	return run
}

// firstErr returns the lowest-rank endpoint error (the aggregate verdict of
// a run; on inproc there is exactly one).
func (r *backendRun) firstErr() error {
	for rank := 0; ; rank++ {
		if err, ok := r.errOf[rank]; ok {
			return err
		}
		if rank > len(r.errOf)+1024 {
			return nil
		}
	}
}

// pinRanks compares each rank's result rows and meter ledgers against the
// oracle run.
func pinRanks(t *testing.T, backend string, size int, oracle, got *backendRun, oracleRows, gotRows [][]int64) {
	t.Helper()
	for r := 0; r < size; r++ {
		if want, have := fmt.Sprint(oracleRows[r]), fmt.Sprint(gotRows[r]); want != have {
			t.Errorf("%s size %d rank %d result rows:\n  oracle: %s\n  %s: %s", backend, size, r, want, backend, have)
		}
		ow, gw := oracle.worldOf[r], got.worldOf[r]
		if ow == nil || gw == nil {
			t.Fatalf("%s size %d rank %d missing world (oracle %v, got %v)", backend, size, r, ow != nil, gw != nil)
		}
		if want, have := ow.RankMeter(r), gw.RankMeter(r); want != have {
			t.Errorf("%s size %d rank %d meter: oracle %+v, got %+v", backend, size, r, want, have)
		}
		for _, kind := range []mpi.CommKind{mpi.KindAllgather, mpi.KindAlltoall, mpi.KindGather, mpi.KindScatter, mpi.KindReduce, mpi.KindRMA} {
			if want, have := ow.RankKindMeter(r, kind), gw.RankKindMeter(r, kind); want != have {
				t.Errorf("%s size %d rank %d %v meter: oracle %+v, got %+v", backend, size, r, kind, want, have)
			}
		}
	}
}

// collectiveProgram exercises every blocking collective, the buffer-lending
// variants, and a two-level Split, writing a deterministic digest into
// rows[rank].
func collectiveProgram(size int, rows [][]int64) func(c *mpi.Comm) error {
	return func(c *mpi.Comm) error {
		r := int64(c.Rank())
		var out []int64

		c.Barrier()
		out = append(out, c.Allreduce(mpi.OpSum, r+1))
		out = append(out, c.Allreduce(mpi.OpMax, 100-r))
		out = append(out, c.Allreduce(mpi.OpLor, r%2))
		out = append(out, c.AllreduceN(mpi.OpSum, []int64{r, r * r, -r})...)

		for _, part := range c.Allgatherv([]int64{r, r * r}) {
			out = append(out, part...)
		}
		parts := make([][]int64, size)
		for d := range parts {
			parts[d] = []int64{r*100 + int64(d), r - int64(d)}
		}
		for _, part := range c.Alltoallv(parts) {
			out = append(out, part...)
		}
		out = append(out, c.AllgathervInto([]int64{r + 5}, nil)...)
		flat := c.AlltoallvFlat(parts, nil)
		out = append(out, flat...)

		for _, part := range c.Gatherv(0, []int64{r * 3}) {
			out = append(out, part...)
		}
		var scat [][]int64
		if c.Rank() == 0 {
			scat = make([][]int64, size)
			for d := range scat {
				scat[d] = []int64{int64(d) * 11, int64(d) * 13}
			}
		}
		out = append(out, c.Scatterv(0, scat)...)

		// Two-way split plus a size-1 sub-split keyed in reverse order.
		half := c.Split(c.Rank()%2, -c.Rank())
		out = append(out, half.Allreduce(mpi.OpSum, r+1))
		out = append(out, int64(half.Rank()), int64(half.Size()))
		solo := half.Split(half.Rank(), 0)
		out = append(out, solo.Allreduce(mpi.OpMax, r))

		c.AddWork(int(r) + 3)
		rows[c.WorldRank()] = out
		return nil
	}
}

// requestProgram exercises the split-phase requests, including progressive
// Parts consumption and compute/communication overlap.
func requestProgram(size int, rows [][]int64) func(c *mpi.Comm) error {
	return func(c *mpi.Comm) error {
		r := int64(c.Rank())
		var out []int64

		areq := c.IAllreduce(mpi.OpMin, 50+r)
		c.AddWork(10) // overlapped compute
		out = append(out, areq.Wait())

		greq := c.IAllgatherv([]int64{r * 2, r*2 + 1})
		for _, part := range greq.Wait() {
			out = append(out, part...)
		}

		parts := make([][]int64, size)
		for d := range parts {
			parts[d] = []int64{r + int64(d)*10}
		}
		preq := c.IAlltoallvParts(parts)
		sum := int64(0)
		for {
			src, part, ok := preq.Next()
			if !ok {
				break
			}
			sum += int64(src+1) * part[0]
		}
		preq.Wait()
		out = append(out, sum)

		// Digest must be commutative: Next yields parts in arrival order,
		// which is scheduling-dependent on every backend.
		gp := c.IAllgathervParts([]int64{r + 20})
		mix := int64(0)
		for {
			src, part, ok := gp.Next()
			if !ok {
				break
			}
			mix += (int64(src) + 3) * (part[0]*part[0] + 1)
		}
		gp.Wait()
		out = append(out, mix)

		rows[c.WorldRank()] = out
		return nil
	}
}

// rmaProgram exercises one-sided traffic: ring puts, gets, fetch-and-op with
// every coded operator, fenced epochs.
func rmaProgram(size int, rows [][]int64) func(c *mpi.Comm) error {
	return func(c *mpi.Comm) error {
		r := int64(c.Rank())
		local := make([]int64, 8)
		for i := range local {
			local[i] = r*10 + int64(i)
		}
		win := mpi.WinCreate(c, local)
		right := (c.Rank() + 1) % size

		// Epoch 1: everyone puts a stamp into its right neighbor.
		win.Put(right, 0, []int64{1000 + r})
		win.Put1(right, 1, 2000+r)
		win.Fence()

		// Epoch 2: read the left neighbor's slice, accumulate into right.
		var out []int64
		out = append(out, win.Get(right, 0, 4)...)
		out = append(out, win.Get1(right, 5))
		out = append(out, win.FetchAndOp(right, 2, mpi.OpSum, 5))
		out = append(out, win.FetchAndOp(right, 2, mpi.OpMax, 1))
		out = append(out, win.FetchAndOp(right, 3, mpi.OpMin, -r))
		out = append(out, win.FetchAndOp(right, 4, mpi.OpReplace, 77+r))
		win.Fence()

		out = append(out, local...)
		rows[c.WorldRank()] = out
		return nil
	}
}

// conformanceCase runs one program on the oracle and every other backend at
// every conformance size, pinning rows and meters.
func conformanceCase(t *testing.T, program func(size int, rows [][]int64) func(c *mpi.Comm) error) {
	t.Helper()
	for _, size := range conformanceSizes {
		oracleRows := make([][]int64, size)
		oracle := runBackend(t, backends[0], size, func() mpi.RunConfig { return mpi.RunConfig{} }, program(size, oracleRows))
		if err := oracle.firstErr(); err != nil {
			t.Fatalf("oracle size %d: %v", size, err)
		}
		for _, b := range backends[1:] {
			gotRows := make([][]int64, size)
			got := runBackend(t, b, size, func() mpi.RunConfig { return mpi.RunConfig{} }, program(size, gotRows))
			for rank, err := range got.errOf {
				if err != nil {
					t.Fatalf("%s size %d endpoint %d: %v", b.name, size, rank, err)
				}
			}
			pinRanks(t, b.name, size, oracle, got, oracleRows, gotRows)
		}
	}
}

func TestConformanceCollectives(t *testing.T) { conformanceCase(t, collectiveProgram) }

func TestConformanceRequests(t *testing.T) { conformanceCase(t, requestProgram) }

func TestConformanceRMA(t *testing.T) { conformanceCase(t, rmaProgram) }

// nilEmptyProgram runs every payload-carrying collective on parts that are
// nil on some ranks, empty on others and one word long on the rest. A nil
// part is "not posted", an empty one "posted empty": readers see zero words
// either way, on every backend, so the digest records each received part's
// length and contents.
func nilEmptyProgram(size int, rows [][]int64) func(c *mpi.Comm) error {
	return func(c *mpi.Comm) error {
		r := c.Rank()
		part := func(d int) []int64 {
			switch (r + d) % 3 {
			case 0:
				return nil
			case 1:
				return []int64{}
			}
			return []int64{int64(10*r + d)}
		}
		var out []int64
		digest := func(parts ...[]int64) {
			for _, p := range parts {
				out = append(out, int64(len(p)))
				out = append(out, p...)
			}
		}
		// drain folds a progressive request order-free: Next yields parts
		// in arrival order.
		drain := func(pr *mpi.Request) {
			mix := int64(0)
			for {
				src, p, ok := pr.Next()
				if !ok {
					break
				}
				mix += int64(src+1) * int64(len(p)+1)
				for _, x := range p {
					mix += int64(src+3) * x
				}
			}
			pr.Wait()
			out = append(out, mix)
		}
		parts := make([][]int64, size)
		for d := range parts {
			parts[d] = part(d)
		}
		mine := part(0)

		digest(c.Allgatherv(mine)...)
		digest(c.Alltoallv(parts)...)
		digest(c.AllgathervInto(mine, nil))
		digest(c.AlltoallvFlat(parts, nil))
		drain(c.IAllgathervParts(mine))
		drain(c.IAlltoallvParts(parts))
		digest(c.Gatherv(0, mine)...)
		var scat [][]int64
		if r == 0 {
			scat = parts
		}
		digest(c.Scatterv(0, scat))

		rows[c.WorldRank()] = out
		return nil
	}
}

// TestConformanceNilEmptyPayloads pins nil and empty payloads against the
// oracle, rows and per-kind meters.
func TestConformanceNilEmptyPayloads(t *testing.T) { conformanceCase(t, nilEmptyProgram) }

// TestConformanceNilEmptyPayloadsCompressed is the same program with wire
// compression on, where a posted-empty part and a nil one take different
// encodings on the wire but must still read, and meter, alike.
func TestConformanceNilEmptyPayloadsCompressed(t *testing.T) {
	cfg := func() mpi.RunConfig { return mpi.RunConfig{Compress: true} }
	for _, size := range conformanceSizes {
		oracleRows := make([][]int64, size)
		oracle := runBackend(t, backends[0], size, cfg, nilEmptyProgram(size, oracleRows))
		if err := oracle.firstErr(); err != nil {
			t.Fatalf("oracle size %d: %v", size, err)
		}
		for _, b := range backends[1:] {
			gotRows := make([][]int64, size)
			got := runBackend(t, b, size, cfg, nilEmptyProgram(size, gotRows))
			for rank, err := range got.errOf {
				if err != nil {
					t.Fatalf("%s size %d endpoint %d: %v", b.name, size, rank, err)
				}
			}
			pinRanks(t, b.name, size, oracle, got, oracleRows, gotRows)
		}
	}
}

// TestConformanceFault pins injected-crash behavior: the endpoint hosting
// the crash rank reports the injected error on every backend, and every
// other endpoint observes the abort (locally structured or propagated).
func TestConformanceFault(t *testing.T) {
	const size = 4
	program := func(c *mpi.Comm) error {
		for i := 0; i < 6; i++ {
			c.Barrier()
		}
		return nil
	}
	for _, b := range backends {
		plan := &mpi.FaultPlan{CrashRank: 2, CrashAtCollective: 3}
		run := runBackend(t, b, size, func() mpi.RunConfig { return mpi.RunConfig{Faults: plan} }, program)
		if plan.Fired() != 1 {
			t.Errorf("%s: fault fired %d times, want 1", b.name, plan.Fired())
		}
		sawInjected := false
		for rank, err := range run.errOf {
			if err == nil {
				t.Errorf("%s endpoint %d: no error from a crashed world", b.name, rank)
				continue
			}
			if errors.Is(err, mpi.ErrInjectedCrash) {
				sawInjected = true
				continue
			}
			var remote *mpi.RemoteAbortError
			if !errors.As(err, &remote) || !strings.Contains(err.Error(), "injected") {
				t.Errorf("%s endpoint %d: unexpected abort cause %v", b.name, rank, err)
			}
		}
		if !sawInjected {
			t.Errorf("%s: no endpoint reported the injected crash directly", b.name)
		}
	}
}

// TestConformanceWatchdog pins watchdog behavior: rank 0 never posts the
// barrier, so every endpoint hosting a blocked rank aborts with a deadlock
// diagnosis (its own watchdog) or the propagated abort, each within the
// configured timeout.
func TestConformanceWatchdog(t *testing.T) {
	const size = 3
	program := func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			return nil // never posts; peers wedge in the barrier
		}
		c.Barrier()
		return nil
	}
	cfg := func() mpi.RunConfig {
		return mpi.RunConfig{WatchdogTimeout: 200 * time.Millisecond}
	}
	for _, b := range backends {
		run := runBackend(t, b, size, cfg, program)
		stuck := 0
		for rank, err := range run.errOf {
			if rank == 0 && err == nil {
				// A rank-0-only endpoint finishes clean (its world hosted no
				// blocked rank); the oracle hosts everyone so it must fail.
				if b.name == "inproc" {
					t.Errorf("%s: oracle returned nil despite wedged ranks", b.name)
				}
				continue
			}
			if err == nil {
				t.Errorf("%s endpoint %d: wedged world returned nil", b.name, rank)
				continue
			}
			if !strings.Contains(err.Error(), "no progress") {
				t.Errorf("%s endpoint %d: abort cause %v does not carry the deadlock diagnosis", b.name, rank, err)
			}
			stuck++
		}
		if stuck == 0 {
			t.Errorf("%s: no endpoint diagnosed the deadlock", b.name)
		}
	}
}

// TestConformanceStraggler pins that stragglers perturb timing only: results
// and meters stay bit-identical to the oracle run without any fault plan.
func TestConformanceStraggler(t *testing.T) {
	const size = 3
	oracleRows := make([][]int64, size)
	oracle := runBackend(t, backends[0], size, func() mpi.RunConfig { return mpi.RunConfig{} }, collectiveProgram(size, oracleRows))
	if err := oracle.firstErr(); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	plan := func() *mpi.FaultPlan {
		return &mpi.FaultPlan{Seed: 7, StragglerRank: 1, StragglerDelay: time.Millisecond, StragglerEvery: 2}
	}
	for _, b := range backends {
		gotRows := make([][]int64, size)
		shared := plan()
		got := runBackend(t, b, size, func() mpi.RunConfig { return mpi.RunConfig{Faults: shared} }, collectiveProgram(size, gotRows))
		if err := got.firstErr(); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		pinRanks(t, b.name, size, oracle, got, oracleRows, gotRows)
	}
}

// TestLendingSendBuffersReusableOnReturn pins when a buffer-lending
// collective hands the send buffers back. Rank 1 starts the collective,
// sleeps, then waits; rank 0 runs it blocking and overwrites its send
// buffers the moment it returns. In-process, rank 1 reads rank 0's buffers
// in place, so rank 0 must not return before rank 1 has read. Across
// processes, rank 1 reads the copy its transport received, so rank 0 must
// return while rank 1 is still asleep. Either way rank 1 receives the
// original values.
func TestLendingSendBuffersReusableOnReturn(t *testing.T) {
	const nap = 500 * time.Millisecond
	type lending struct {
		name  string
		start func(c *mpi.Comm, send []int64) *mpi.Pending[[]int64]
		want  []int64 // rank 1's result: rank 0's part, then its own
	}
	for _, coll := range []lending{
		{"IAlltoallvFlat", func(c *mpi.Comm, send []int64) *mpi.Pending[[]int64] {
			return c.IAlltoallvFlat([][]int64{send[:2], send[2:]}, nil)
		}, []int64{3, 4, 7, 8}},
		{"IAllgathervInto", func(c *mpi.Comm, send []int64) *mpi.Pending[[]int64] {
			return c.IAllgathervInto(send, nil)
		}, []int64{1, 2, 3, 4, 5, 6, 7, 8}},
	} {
		for _, b := range backends {
			var asleep, rank0SawAsleep atomic.Bool
			program := func(c *mpi.Comm) error {
				if c.Rank() == 0 {
					send := []int64{1, 2, 3, 4}
					coll.start(c, send).Wait()
					rank0SawAsleep.Store(asleep.Load())
					for i := range send {
						send[i] = -1
					}
					return nil
				}
				asleep.Store(true)
				rq := coll.start(c, []int64{5, 6, 7, 8})
				time.Sleep(nap)
				asleep.Store(false)
				if got := rq.Wait(); fmt.Sprint(got) != fmt.Sprint(coll.want) {
					return fmt.Errorf("rank 1 received %v, want %v", got, coll.want)
				}
				return nil
			}
			run := runBackend(t, b, 2, func() mpi.RunConfig { return mpi.RunConfig{} }, program)
			for rank, err := range run.errOf {
				if err != nil {
					t.Errorf("%s on %s: endpoint %d: %v", coll.name, b.name, rank, err)
				}
			}
			if local := b.name == "inproc"; rank0SawAsleep.Load() == local {
				t.Errorf("%s on %s: rank 0 returned while rank 1 was asleep = %v, want %v",
					coll.name, b.name, rank0SawAsleep.Load(), !local)
			}
		}
	}
}
