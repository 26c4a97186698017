package mpi

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mcmdist/internal/obs"
)

// DeadlockError reports a world aborted by the progress watchdog: no mailbox
// generation advanced and no RMA op ran for at least Timeout. It names the
// communicator and operation the world is wedged on and which ranks did and
// did not post, turning a silent hang into an actionable diagnostic.
type DeadlockError struct {
	Comm    string        // communicator id ("world", "world/split@3/c1", ...)
	Op      string        // collective the stuck generation belongs to
	Gen     int64         // stuck generation number on that communicator
	Posted  []int         // world ranks that posted the stuck collective
	Missing []int         // world ranks that have not posted it
	Timeout time.Duration // the watchdog deadline that expired
}

// Error formats the stuck op and the lagging ranks.
func (e *DeadlockError) Error() string {
	if e.Op == "" {
		return fmt.Sprintf("mpi: no progress for %v and no pending collective (ranks stuck outside the mailbox)", e.Timeout)
	}
	return fmt.Sprintf("mpi: no progress for %v: %s gen %d on comm %q posted by ranks %v, missing ranks %v",
		e.Timeout, e.Op, e.Gen, e.Comm, e.Posted, e.Missing)
}

// abortSignal unwinds a rank goroutine blocked (or about to block) in the
// mailbox of an aborted world. It is converted to a RankError{Op: "abort"}
// by the panic containment in RunTransport and never escapes the package.
type abortSignal struct{ cause error }

// abortReason returns the recorded abort cause (nil before Abort).
func (w *World) abortReason() error {
	w.mu.Lock()
	cause := w.abortCause
	w.mu.Unlock()
	return cause
}

// Abort marks the world dead with the given cause and wakes every rank
// blocked in a mailbox wait; they unwind with an abortSignal panic that
// RunTransport contains. On a multi-process backend the abort is propagated
// to every peer process, which aborts its share of the world the same way.
// Idempotent — only the first cause is kept. Safe to call from any goroutine
// (the watchdog, a transport's read loop, a rank's deferred error handler).
func (w *World) Abort(cause error) {
	w.abort(cause, true)
}

// abort is Abort with control over peer propagation: DeliverAbort passes
// propagate=false because the originating process already notified every
// peer, which keeps abort storms from ping-ponging across the fabric.
func (w *World) abort(cause error, propagate bool) {
	if !w.aborted.CompareAndSwap(false, true) {
		return
	}
	w.obsAbortEvent(cause)
	w.mu.Lock()
	w.abortCause = cause
	states := make([]*commState, 0, len(w.comms))
	for _, st := range w.comms {
		states = append(states, st)
	}
	w.mu.Unlock()
	for _, st := range states {
		st.markAborted(cause)
	}
	if propagate && w.hasRemote {
		w.transport.Abort(cause.Error())
	}
}

// Aborted reports whether the world has been aborted.
func (w *World) Aborted() bool { return w.aborted.Load() }

// markAborted flags one communicator state dead and wakes its waiters.
func (st *commState) markAborted(cause error) {
	st.mu.Lock()
	if !st.aborted {
		st.aborted = true
		st.abortErr = cause
		st.cond.Broadcast()
	}
	st.mu.Unlock()
}

// deadlockError inspects every communicator's mailbox for the stuck
// generation and builds the diagnostic. Preference order: a generation some
// ranks have not posted (classic wedge), then a fully posted generation not
// yet consumed by the ranks hosted here (a rank died between posting and
// reading), then a generic no-pending-collective report (ranks stuck in
// compute or RMA).
func (w *World) deadlockError(timeout time.Duration) *DeadlockError {
	w.mu.Lock()
	states := make([]*commState, 0, len(w.comms))
	for _, st := range w.comms {
		states = append(states, st)
	}
	w.mu.Unlock()
	// Deterministic scan order across runs (map iteration is not).
	sort.Slice(states, func(i, j int) bool { return states[i].id < states[j].id })

	var unconsumed *DeadlockError
	for _, st := range states {
		st.mu.Lock()
		// Lowest pending generation on this comm is the one the group is
		// actually stuck on (later gens can only be ahead-runners).
		var gens []int64
		for gen := range st.arrived {
			gens = append(gens, gen)
		}
		sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
		for _, gen := range gens {
			if st.arrived[gen] < len(st.ranks) {
				var posted, missing []int
				for m := range st.ranks {
					if _, ok := st.posted[m][gen]; ok {
						posted = append(posted, st.ranks[m])
					} else {
						missing = append(missing, st.ranks[m])
					}
				}
				sort.Ints(posted)
				sort.Ints(missing)
				e := &DeadlockError{
					Comm: st.id, Op: st.ops[gen], Gen: gen,
					Posted: posted, Missing: missing, Timeout: timeout,
				}
				st.mu.Unlock()
				return e
			}
			if unconsumed == nil && st.taken[gen] < st.nlocal {
				all := append([]int(nil), st.ranks...)
				sort.Ints(all)
				unconsumed = &DeadlockError{
					Comm: st.id, Op: st.ops[gen], Gen: gen,
					Posted: all, Timeout: timeout,
				}
			}
		}
		st.mu.Unlock()
	}
	if unconsumed != nil {
		return unconsumed
	}
	return &DeadlockError{Timeout: timeout}
}

// RunConfig configures a fault-aware SPMD execution. The zero value behaves
// exactly like plain Run: no fault injection, no watchdog.
type RunConfig struct {
	// Faults is the fault plan to attach to the world (nil for none): the
	// one way in for rank and link faults alike. A backend with a wire
	// reads the link faults back through World.Faults.
	Faults *FaultPlan
	// WatchdogTimeout arms the progress watchdog: if no collective posts,
	// none retires, and no RMA op runs for this long, the world aborts
	// with a DeadlockError. It must comfortably exceed the longest
	// communication-free stretch of the program (local compute between
	// collectives does not count as progress) and any injected straggler
	// delay. Zero disables the watchdog. The watchdog samples progress
	// every WatchdogTimeout/8 (at least 1ms).
	WatchdogTimeout time.Duration
	// Compress enables the delta-varint wire codec for this world: backends
	// that serialize payloads (tcpnet) encode them on the wire, and every
	// backend meters the encoded volume as Meter.WordsEnc (see the package
	// metering conventions). Results are bit-identical with it on or off.
	Compress bool
}

// Run launches fn on size ranks and waits for all of them. It returns the
// world (for meter inspection) and the first error any rank returned. A rank
// panic is contained into a *RankError rather than crashing the process, and
// any rank failure aborts the world so the surviving ranks unwind instead of
// blocking forever in the mailbox.
func Run(size int, fn func(c *Comm) error) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: size %d must be positive", size)
	}
	return RunTransport(RunConfig{}, NewInproc(size), fn)
}

// RunTransport launches fn on every world rank hosted by this process's
// transport endpoint and waits for all of them. Over Inproc that is every
// rank and the call is self-contained; over a multi-process backend each
// participating process calls RunTransport with its own endpoint and fn runs
// only on the locally hosted ranks, with remote mailbox and RMA traffic
// riding the transport. The caller retains ownership of tr and must Close it
// after inspecting the returned world.
//
// Error semantics match the historical Run: the first locally hosted rank's
// own failure (in ascending rank order) wins, then the world abort cause
// (which may have originated in a peer process), then any abort-derived rank
// unwinding.
func RunTransport(cfg RunConfig, tr Transport, fn func(c *Comm) error) (*World, error) {
	size := tr.WorldSize()
	if size <= 0 {
		return nil, fmt.Errorf("mpi: world size %d must be positive", size)
	}
	local := append([]int(nil), tr.LocalRanks()...)
	if len(local) == 0 {
		return nil, fmt.Errorf("mpi: transport %q hosts no local ranks", tr.Name())
	}
	isLocal := make([]bool, size)
	for _, r := range local {
		if r < 0 || r >= size {
			return nil, fmt.Errorf("mpi: transport %q hosts rank %d outside world of size %d", tr.Name(), r, size)
		}
		isLocal[r] = true
	}
	w := &World{
		size:       size,
		local:      local,
		isLocal:    isLocal,
		hasRemote:  len(local) < size,
		transport:  tr,
		compress:   cfg.Compress,
		meters:     make([]meterCell, size),
		comms:      make(map[string]*commState),
		winsByID:   make(map[string]*winState),
		faults:     cfg.Faults,
		faultColl:  make([]atomic.Int64, size),
		faultRMA:   make([]atomic.Int64, size),
		obsTracers: make([]*obs.Tracer, size),
		payloads:   payloadPool.Get().(*Payloads),
	}
	defer payloadPool.Put(w.payloads)
	ranks := make([]int, size)
	for i := range ranks {
		ranks[i] = i
	}
	st := w.commStateFor("world", ranks)
	w.mu.Lock()
	w.root = st
	w.mu.Unlock()
	if err := tr.Bind(w); err != nil {
		return nil, fmt.Errorf("mpi: binding transport %q: %w", tr.Name(), err)
	}

	stop := make(chan struct{})
	var aux sync.WaitGroup
	if cfg.WatchdogTimeout > 0 {
		aux.Add(1)
		go func() {
			defer aux.Done()
			w.watchdog(cfg.WatchdogTimeout, stop)
		}()
	}

	errs := make([]error, len(local))
	var wg sync.WaitGroup
	for i, r := range local {
		wg.Add(1)
		go func(i, r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[i] = containPanic(r, p)
				}
				// Any rank failure — returned error, contained panic,
				// injected fault — kills the world so peers blocked in
				// the mailbox unwind instead of leaking. Abort-derived
				// unwindings don't re-abort (the cause is already set).
				if errs[i] != nil && !isAbortDerived(errs[i]) {
					w.Abort(errs[i])
				}
			}()
			errs[i] = fn(&Comm{st: st, member: r, worldRank: r})
		}(i, r)
	}
	wg.Wait()
	close(stop)
	aux.Wait()

	// Error selection: the first rank's own failure (in rank order) wins,
	// matching historical Run semantics; ranks that merely unwound from an
	// abort are reported only through the abort cause.
	for _, err := range errs {
		if err != nil && !isAbortDerived(err) {
			return w, err
		}
	}
	if cause := w.abortReason(); cause != nil {
		return w, cause
	}
	for _, err := range errs {
		if err != nil {
			return w, err
		}
	}
	return w, nil
}

// watchdog samples the world's progress counter until stop closes, aborting
// with a DeadlockError when it stalls past timeout.
func (w *World) watchdog(timeout time.Duration, stop <-chan struct{}) {
	ticker := time.NewTicker(max(timeout/8, time.Millisecond))
	defer ticker.Stop()
	last := w.progress.Load()
	lastChange := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			cur := w.progress.Load()
			if cur != last {
				last, lastChange = cur, time.Now()
				continue
			}
			if time.Since(lastChange) >= timeout {
				w.Abort(w.deadlockError(timeout))
				return
			}
		}
	}
}

// containPanic converts a recovered rank panic into a *RankError. The
// package's own abortSignal unwinding becomes a RankError{Op: "abort"}
// wrapping the abort cause; injected-fault RankErrors pass through; anything
// else is a genuine bug in rank code, captured with its stack.
func containPanic(rank int, p any) error {
	switch v := p.(type) {
	case abortSignal:
		cause := v.cause
		if cause == nil {
			cause = errors.New("mpi: world aborted")
		}
		return &RankError{Rank: rank, Op: "abort", Err: cause}
	case *RankError:
		return v
	case error:
		return &RankError{Rank: rank, Op: "panic", Err: v, Stack: debug.Stack()}
	default:
		return &RankError{Rank: rank, Op: "panic", Err: fmt.Errorf("%v", v), Stack: debug.Stack()}
	}
}

// isAbortDerived reports whether err is a rank unwinding caused by a world
// abort (as opposed to the rank's own failure).
func isAbortDerived(err error) bool {
	var re *RankError
	return errors.As(err, &re) && re.Op == "abort"
}
