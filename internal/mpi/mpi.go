// Package mpi is an in-process, deterministic stand-in for the MPI runtime
// the paper's implementation relies on (Cray MPICH2 on the Edison Cray XC30).
// Go has no MPI ecosystem, so each MPI process ("rank") is simulated by a
// goroutine; ranks interact only through this package's communicator API, so
// algorithm code written against it has the same structure as true
// distributed-memory SPMD code.
//
// The package provides:
//
//   - SPMD launch (Run), communicators, and sub-communicator Split, used for
//     the 2D process grid's row and column communicators;
//   - the bulk-synchronous collectives CombBLAS uses: Barrier, Allgatherv,
//     Alltoallv, Gatherv, Scatterv, Allreduce, and AllreduceN, which
//     reduces k words elementwise in one collective;
//   - split-phase (nonblocking) collectives, so callers can overlap local
//     computation with communication (MPI_Iallgatherv & co.): IAllgatherv,
//     IAlltoallv, IAllreduce and the buffer-lending IAllgathervInto and
//     IAlltoallvFlat return a Pending result, and the progressive
//     IAllgathervParts and IAlltoallvParts return the Request itself, whose
//     Next hands back each source's part as it arrives; every one of them
//     completes in Request.Wait;
//   - one-sided RMA windows with Get, Put and FetchAndOp, matching the
//     MPI_GET / MPI_PUT / MPI_FETCH_AND_OP calls of the paper's path-parallel
//     augmentation (Algorithm 4);
//   - per-rank communication meters (messages, words, local work) from which
//     the α-β cost model of the paper's Section IV-B is evaluated, plus a
//     communication-time ledger (CommTimes) splitting comm wall time into
//     exposed and hidden parts.
//
// Collectives ride a non-rendezvous mailbox: posting a contribution never
// blocks, so a rank can start a collective, keep computing, and only pay
// the synchronization when it Waits. The blocking collectives are expressed
// as start(); Wait() on the same engine and keep their exact historical
// semantics and metering. A collective generation retires in each process
// once the ranks hosted there have read it: in-process every rank reads the
// sender's buffer directly, across processes the transport has already
// copied each remote part into its own message, so a lending collective
// costs one traversal of the fabric and no read notice ever crosses it.
// Those copies live in buffers from the world's free list (Payloads): the
// mailbox owns each one until its generation retires here, then puts it
// back for the next remote part of its size class.
//
// Payloads are []int64 throughout: every object the matching algorithms
// communicate (indices, mates, parents, roots) is an integer, and a flat
// integer payload makes the word-count metering exact. The mailbox holds
// each post as a row of [][]int64 parts, one per destination member: a nil
// part was not posted, an empty non-nil one was posted empty, and readers
// see zero words either way.
//
// Metering conventions (per rank, documented so the cost model is auditable):
//
//   - Alltoallv: p-1 messages; words = total sent to other ranks.
//   - Allgatherv (ring algorithm, as in the paper): p-1 messages; words =
//     total received from other ranks.
//   - Gatherv/Scatterv: root counts p-1 messages and the full volume moved;
//     leaves count 1 message and their own contribution.
//   - Allreduce (a binomial reduce tree, then a broadcast tree): one
//     message and one word per tree level, 2·ceil(log2 p) of each;
//     AllreduceN of k words: the same messages, k words each.
//   - RMA Get/Put/FetchAndOp: 1 message per call plus the words moved;
//     operations on the caller's own window are local and cost nothing.
//
// Every collective, blocking or split-phase, meters exactly once, in the
// first Request.Wait, by the rule the request was started with — the
// request layer never double-counts. A progressive request counts the
// sources it never handed back through Next too, so its counts equal its
// blocking counterpart's however much of it was read.
//
// When the world runs with wire compression (RunConfig.Compress), every
// metering site additionally records Meter.WordsEnc: the delta-varint
// encoded size (internal/wire, rounded up to 8-byte words) of the same
// payloads Words counts raw. The encoded size is computed here at the
// collective layer — the codec is deterministic, so sender and receiver
// agree and the count is bit-identical on every backend, whether or not the
// backend's fabric actually encodes (tcpnet does, inproc moves pointers).
// Payloads that cross the wire unencoded — scalar reduction trees, RMA
// frames — count their raw size. With compression off WordsEnc stays zero.
//
// Each copying collective has a buffer-lending variant for hot paths
// (AllgathervInto, AlltoallvFlat): the caller lends a destination buffer
// (typically from an rt arena), received payloads are appended into it, and
// nothing in the result aliases any rank's send buffer — so both the lent
// buffer and the send parts can be recycled the moment the call returns.
// The metering of each variant is identical to its copying counterpart; the
// copying API remains the reference for tests.
package mpi

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"mcmdist/internal/obs"
	"mcmdist/internal/wire"
)

// CommKind labels the collective family a transfer belongs to, for the
// per-kind telemetry that attributes algorithm phases to communication
// patterns (e.g. INVERT to personalized all-to-all, PRUNE to allgather).
type CommKind uint8

// The collective families.
const (
	KindAllgather CommKind = iota
	KindAlltoall
	KindGather
	KindScatter
	KindReduce
	KindRMA
	numKinds
)

// String names the kind.
func (k CommKind) String() string {
	switch k {
	case KindAllgather:
		return "allgather"
	case KindAlltoall:
		return "alltoall"
	case KindGather:
		return "gather"
	case KindScatter:
		return "scatter"
	case KindReduce:
		return "reduce"
	case KindRMA:
		return "rma"
	default:
		return fmt.Sprintf("CommKind(%d)", int(k))
	}
}

// Meter accumulates per-rank communication and computation counts.
type Meter struct {
	Msgs  int64 // messages sent or received (latency units, α)
	Words int64 // 8-byte words moved (bandwidth units, β)
	Work  int64 // local operations recorded via AddWork (compute units, F)
	// WordsEnc is the wire-compressed counterpart of Words: the delta-varint
	// encoded volume in 8-byte words when the world runs with compression
	// (see the package metering conventions). Zero when compression is off.
	WordsEnc int64
}

// Add returns the element-wise sum of two meters.
func (m Meter) Add(o Meter) Meter {
	return Meter{Msgs: m.Msgs + o.Msgs, Words: m.Words + o.Words,
		Work: m.Work + o.Work, WordsEnc: m.WordsEnc + o.WordsEnc}
}

// Sub returns the element-wise difference m - o.
func (m Meter) Sub(o Meter) Meter {
	return Meter{Msgs: m.Msgs - o.Msgs, Words: m.Words - o.Words,
		Work: m.Work - o.Work, WordsEnc: m.WordsEnc - o.WordsEnc}
}

// Max returns the element-wise maximum of two meters.
func (m Meter) Max(o Meter) Meter {
	out := m
	if o.Msgs > out.Msgs {
		out.Msgs = o.Msgs
	}
	if o.Words > out.Words {
		out.Words = o.Words
	}
	if o.Work > out.Work {
		out.Work = o.Work
	}
	if o.WordsEnc > out.WordsEnc {
		out.WordsEnc = o.WordsEnc
	}
	return out
}

// CommTimes is the split-phase communication-time ledger of one rank.
// Total is the wall time requests spent in flight (start to completion,
// summed over requests; concurrent requests overlap-count by design) and
// Exposed is the part of that the rank actually spent blocked inside
// Wait and Next. Total - Exposed is the latency hidden behind local
// computation; for fully blocking collectives the two are nearly equal.
type CommTimes struct {
	Total   time.Duration // requests in flight, start to completion
	Exposed time.Duration // the part of Total spent blocked
}

// Add returns the element-wise sum of two ledgers.
func (t CommTimes) Add(o CommTimes) CommTimes {
	return CommTimes{Total: t.Total + o.Total, Exposed: t.Exposed + o.Exposed}
}

// Sub returns the element-wise difference t - o.
func (t CommTimes) Sub(o CommTimes) CommTimes {
	return CommTimes{Total: t.Total - o.Total, Exposed: t.Exposed - o.Exposed}
}

// Max returns the element-wise maximum of two ledgers.
func (t CommTimes) Max(o CommTimes) CommTimes {
	out := t
	if o.Total > out.Total {
		out.Total = o.Total
	}
	if o.Exposed > out.Exposed {
		out.Exposed = o.Exposed
	}
	return out
}

// World is one process's share of an SPMD execution: the ranks this process
// hosts, their mailboxes and meters, and the transport endpoint connecting
// them to the ranks hosted elsewhere. On the in-process backend the process
// hosts every rank and the world is the whole execution, exactly as before
// the transport refactor.
type World struct {
	size      int
	local     []int  // world ranks hosted in this process, ascending
	isLocal   []bool // indexed by world rank
	hasRemote bool   // some ranks live in other processes
	transport Transport
	compress  bool        // wire compression: meter WordsEnc, tcp encodes POST payloads
	meters    []meterCell // indexed by world rank; only local cells ever move

	mu         sync.Mutex
	comms      map[string]*commState // every materialized communicator, by id
	root       *commState            // the world communicator's mailbox (under mu)
	abortCause error                 // first Abort cause (under mu)
	winsByID   map[string]*winState  // RMA window registry (see rma.go)

	aborted  atomic.Bool
	progress atomic.Int64 // bumped on every post/retire/RMA; watchdog food

	// Fault plane (see fault.go): the injector and per-rank operation
	// counters it keys off.
	faults    *FaultPlan
	faultColl []atomic.Int64
	faultRMA  []atomic.Int64

	// Observability plane (see obs.go): one tracer slot per rank (each rank
	// goroutine touches only its own slot) and the world-plane event list
	// (under mu). Collection is strictly per-process — see ObsEvents.
	obsTracers []*obs.Tracer
	obsEvents  []obs.Event

	// payloads recycles the buffers remote parts arrive in (see Payloads).
	payloads *Payloads
}

type meterCell struct {
	msgs, words, work atomic.Int64
	wordsEnc          atomic.Int64
	commNs, exposedNs atomic.Int64 // split-phase time ledger (CommTimes)
	kinds             [numKinds]kindCell
}

type kindCell struct {
	msgs, words, wordsEnc atomic.Int64
}

// commState is the shared half of a communicator: a non-rendezvous mailbox
// for one group of ranks. A member posts its contribution to collective
// call number gen without blocking (post); readers pull contributions out
// as they arrive (collect, nextArrived). A generation retires in this
// process once every member hosted here has declared it finished reading
// (finishRead); buffer-lending collectives wait for retirement
// (waitConsumed) before letting callers recycle their send buffers — the
// split-phase replacement for the old whole-comm quiesce rendezvous. Remote
// members never read this process's buffers: the transport copies every
// remote-addressed part out of the send buffer inside Post, so no remote
// reader needs to be waited for. Each participating rank holds a *Comm
// handle that pairs this state with its member index.
type commState struct {
	id     string
	world  *World
	ranks  []int // world ranks of the members, in member order
	nlocal int   // members hosted in this process: the readers gen waits for

	mu   sync.Mutex
	cond *sync.Cond
	// posted[src][gen] is src's row for collective gen (one part per
	// destination member), held from post until the gen retires. A nil
	// part was not posted; an empty non-nil one was posted empty.
	posted  []map[int64][][]int64
	arrived map[int64]int // gen -> members posted so far
	taken   map[int64]int // gen -> local members done reading
	// Retired generations are a watermark plus a sparse set, so the maps
	// above stay bounded no matter how far ahead any rank runs.
	doneLow int64          // every gen < doneLow has retired
	doneSet map[int64]bool // retired gens >= doneLow
	// ops labels each in-flight generation with the collective that opened
	// it (first poster wins), for watchdog diagnostics; entries retire with
	// the generation.
	ops map[int64]string
	// aborted flags a dead world: blocked waiters unwind with abortSignal
	// instead of waiting for posts that will never come.
	aborted  bool
	abortErr error
}

func newCommState(w *World, id string, ranks []int) *commState {
	st := &commState{
		id:      id,
		world:   w,
		ranks:   ranks,
		posted:  make([]map[int64][][]int64, len(ranks)),
		arrived: make(map[int64]int),
		taken:   make(map[int64]int),
		doneSet: make(map[int64]bool),
		ops:     make(map[int64]string),
	}
	for _, r := range ranks {
		if w.isLocalRank(r) {
			st.nlocal++
		}
	}
	for s := range st.posted {
		st.posted[s] = make(map[int64][][]int64)
	}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// post deposits member m's row for collective gen locally and hands the
// same row, uncopied, to the world's transport for the remote-addressed
// parts. It never blocks beyond the transport's own send path: a rank may
// run arbitrarily far ahead of its peers. op labels the generation for
// watchdog diagnostics.
func (st *commState) post(m int, gen int64, row [][]int64, op string) {
	st.deposit(m, gen, row, op)
	if st.nlocal == len(st.ranks) {
		return // no remote members
	}
	msg := &PostMsg{Comm: st.id, Ranks: st.ranks, Src: m, Gen: gen, Op: op, Parts: row}
	if err := st.world.transport.Post(msg); err != nil {
		st.world.Abort(&TransportError{Backend: st.world.transport.Name(), Op: "post", Err: err})
	}
}

// deposit is the local half of post: it files the row in this process's
// mailbox and wakes waiters. Remote rows arrive here too, via
// World.DeliverPost.
func (st *commState) deposit(m int, gen int64, row [][]int64, op string) {
	st.mu.Lock()
	st.posted[m][gen] = row
	st.arrived[gen]++
	if _, ok := st.ops[gen]; !ok {
		st.ops[gen] = op
	}
	st.cond.Broadcast()
	st.mu.Unlock()
	if st.world != nil {
		st.world.progress.Add(1)
	}
}

// collect blocks until every member has posted gen and returns the parts
// addressed to member m, one per source member. If the world aborts while
// waiting, the rank unwinds with an abortSignal panic (contained by
// RunTransport); the deferred unlock keeps the mailbox usable for peers doing
// the same.
func (st *commState) collect(m int, gen int64) [][]int64 {
	size := len(st.ranks)
	st.mu.Lock()
	defer st.mu.Unlock()
	for st.arrived[gen] < size {
		if st.aborted {
			panic(abortSignal{cause: st.abortErr})
		}
		st.cond.Wait()
	}
	out := make([][]int64, size)
	for s := 0; s < size; s++ {
		out[s] = st.posted[s][gen][m]
	}
	return out
}

// nextArrived blocks until some member whose delivered flag is unset has
// posted gen, and returns that member and its part addressed to member m.
// The caller marks delivered afterwards (under its own lock) and must not
// ask for more sources than the communicator has.
func (st *commState) nextArrived(m int, gen int64, delivered []bool) (int, []int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		for s := range st.posted {
			if delivered[s] {
				continue
			}
			if row, ok := st.posted[s][gen]; ok {
				return s, row[m]
			}
		}
		if st.aborted {
			panic(abortSignal{cause: st.abortErr})
		}
		st.cond.Wait()
	}
}

// finishRead declares one local member done reading gen. When the last
// member hosted in this process finishes, the generation retires here: the
// parts remote members posted go back to the world's free list (Payloads),
// local members' send buffers are dropped, and waitConsumed waiters are
// released. Every reader waits for all sources before finishing, so no
// remote post for gen can arrive after it retires, and every reader is done
// with gen's parts before it finishes, so none is read after it is put back.
func (st *commState) finishRead(gen int64) {
	st.mu.Lock()
	st.taken[gen]++
	if st.taken[gen] == st.nlocal {
		for s := range st.posted {
			if st.nlocal < len(st.ranks) && !st.world.isLocalRank(st.ranks[s]) {
				for _, p := range st.posted[s][gen] {
					if p != nil {
						st.world.payloads.Put(p)
					}
				}
			}
			delete(st.posted[s], gen)
		}
		delete(st.arrived, gen)
		delete(st.taken, gen)
		delete(st.ops, gen)
		if gen == st.doneLow {
			st.doneLow++
			for st.doneSet[st.doneLow] {
				delete(st.doneSet, st.doneLow)
				st.doneLow++
			}
		} else {
			st.doneSet[gen] = true
		}
		st.cond.Broadcast()
	}
	st.mu.Unlock()
	st.world.progress.Add(1)
}

// retired reports whether gen has been read by every local member. Caller
// holds st.mu.
func (st *commState) retired(gen int64) bool {
	return gen < st.doneLow || st.doneSet[gen]
}

// label returns the collective that opened generation gen, which must still
// be in flight: the one name every collective of gen carries.
func (st *commState) label(gen int64) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ops[gen]
}

// waitConsumed blocks until gen retires in this process. Deadlock-free under
// the package's SPMD discipline (all members call collectives on a
// communicator in the same order): posting never blocks and reads of later
// generations never wait on earlier ones, so every local member eventually
// performs its own finishRead of gen.
func (st *commState) waitConsumed(gen int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for !st.retired(gen) {
		if st.aborted {
			panic(abortSignal{cause: st.abortErr})
		}
		st.cond.Wait()
	}
}

// Comm is one rank's handle on a communicator.
type Comm struct {
	st        *commState
	member    int   // index within st.ranks
	worldRank int   // rank in the world
	nextGen   int64 // this rank's collective-call counter on this comm
}

// Rank returns this rank's index within the communicator.
func (c *Comm) Rank() int { return c.member }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.st.ranks) }

// WorldRank returns this rank's index in the world communicator.
func (c *Comm) WorldRank() int { return c.worldRank }

// World returns the world this communicator belongs to.
func (c *Comm) World() *World { return c.st.world }

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// AddWork records n units of local computation for the cost model.
func (c *Comm) AddWork(n int) {
	c.st.world.meters[c.worldRank].work.Add(int64(n))
}

func (c *Comm) addComm(kind CommKind, msgs, words, wordsEnc int64) {
	cell := &c.st.world.meters[c.worldRank]
	cell.msgs.Add(msgs)
	cell.words.Add(words)
	cell.wordsEnc.Add(wordsEnc)
	cell.kinds[kind].msgs.Add(msgs)
	cell.kinds[kind].words.Add(words)
	cell.kinds[kind].wordsEnc.Add(wordsEnc)
}

// encWords returns the delta-varint encoded size of the payloads (in 8-byte
// words) when this world runs with wire compression, and 0 otherwise — the
// encoded-accounting input to addComm. Computed identically on every
// backend: the codec is deterministic, so recomputing on a received payload
// yields exactly the size the sender shipped.
func (c *Comm) encWords(payloads ...[]int64) int64 {
	if !c.st.world.compress {
		return 0
	}
	var n int64
	for _, p := range payloads {
		n += wire.EncodedWords(p)
	}
	return n
}

// rawEnc is encWords for payloads that cross the wire unencoded (scalar
// reduction trees, RMA frames): words when compression is on, 0 otherwise.
func (c *Comm) rawEnc(words int64) int64 {
	if !c.st.world.compress {
		return 0
	}
	return words
}

// Compress reports whether this world runs with wire compression: the tcp
// backend consults it when framing POST payloads, and the collective layer
// when metering WordsEnc.
func (w *World) Compress() bool { return w.compress }

// Faults returns the fault plan attached to this world (RunConfig.Faults;
// nil for none): the tcp backend reads its link faults from it.
func (w *World) Faults() *FaultPlan { return w.faults }

func (c *Comm) addCommTimes(total, exposed time.Duration) {
	cell := &c.st.world.meters[c.worldRank]
	cell.commNs.Add(int64(total))
	cell.exposedNs.Add(int64(exposed))
}

// MeterSnapshot returns this rank's cumulative meter.
func (c *Comm) MeterSnapshot() Meter {
	cell := &c.st.world.meters[c.worldRank]
	return Meter{Msgs: cell.msgs.Load(), Words: cell.words.Load(),
		Work: cell.work.Load(), WordsEnc: cell.wordsEnc.Load()}
}

// CommTimes returns this rank's cumulative communication-time ledger.
func (c *Comm) CommTimes() CommTimes {
	return c.st.world.RankCommTimes(c.worldRank)
}

// RankCommTimes returns the cumulative communication-time ledger of the
// given world rank.
func (w *World) RankCommTimes(rank int) CommTimes {
	cell := &w.meters[rank]
	return CommTimes{
		Total:   time.Duration(cell.commNs.Load()),
		Exposed: time.Duration(cell.exposedNs.Load()),
	}
}

// RankKindMeter returns the given world rank's meter for one collective
// family (Work is always zero: local work has no kind).
func (w *World) RankKindMeter(rank int, kind CommKind) Meter {
	cell := &w.meters[rank]
	return Meter{Msgs: cell.kinds[kind].msgs.Load(), Words: cell.kinds[kind].words.Load(),
		WordsEnc: cell.kinds[kind].wordsEnc.Load()}
}

// RankMeter returns the cumulative meter of the given world rank.
func (w *World) RankMeter(rank int) Meter {
	cell := &w.meters[rank]
	return Meter{Msgs: cell.msgs.Load(), Words: cell.words.Load(),
		Work: cell.work.Load(), WordsEnc: cell.wordsEnc.Load()}
}

// MaxMeter returns the element-wise maximum meter over all ranks, an
// approximation of the critical-path cost for load-balanced SPMD phases.
func (w *World) MaxMeter() Meter {
	var m Meter
	for r := 0; r < w.size; r++ {
		m = m.Max(w.RankMeter(r))
	}
	return m
}

// TotalMeter returns the element-wise sum of all rank meters.
func (w *World) TotalMeter() Meter {
	var m Meter
	for r := 0; r < w.size; r++ {
		m = m.Add(w.RankMeter(r))
	}
	return m
}

func logTreeDepth(p int) int64 {
	if p <= 1 {
		return 0
	}
	return int64(bits.Len(uint(p - 1)))
}

// LocalRanks returns the world ranks hosted by this process, ascending. On
// the in-process backend that is every rank.
func (w *World) LocalRanks() []int { return w.local }

// isLocalRank reports whether the given world rank is hosted here.
func (w *World) isLocalRank(r int) bool {
	return r >= 0 && r < len(w.isLocal) && w.isLocal[r]
}

// commStateFor returns the communicator state with the given id,
// materializing it (with a copy of the given membership) on first touch.
// Remote traffic for a communicator can arrive before any local rank has
// Split it; both paths meet here under w.mu. A communicator materialized
// after the world aborted starts aborted, so late waiters unwind
// immediately.
func (w *World) commStateFor(id string, ranks []int) *commState {
	w.mu.Lock()
	st, ok := w.comms[id]
	if !ok {
		st = newCommState(w, id, append([]int(nil), ranks...))
		w.comms[id] = st
	}
	w.mu.Unlock()
	if w.aborted.Load() {
		st.markAborted(w.abortReason())
	}
	return st
}

// DeliverPost files a remote member's contribution in this process's
// mailbox. Called by transport receiver goroutines; safe concurrently with
// local posts.
//
// The mailbox copies msg.Parts into a row of its own and keeps nothing
// else of msg, so the caller may reuse msg, its slices and its strings the
// moment DeliverPost returns. A nil part was not posted. Each non-nil part
// must be a buffer of its own, ideally taken from Payloads: the mailbox
// owns it until its generation retires in this process and then puts it
// back on the free list, so the transport must neither read nor write it
// after handing it over.
func (w *World) DeliverPost(msg *PostMsg) {
	st := w.commStateFor(msg.Comm, msg.Ranks)
	row := make([][]int64, len(msg.Ranks))
	copy(row, msg.Parts)
	st.deposit(msg.Src, msg.Gen, row, msg.Op)
}

// DeliverAbort aborts this process's share of the world with a cause
// propagated from the process where the world actually died. The abort is
// not re-propagated (the originator already notified every peer). Called by
// transport receiver goroutines.
func (w *World) DeliverAbort(from int, msg string) {
	w.abort(&RemoteAbortError{From: from, Msg: msg}, false)
}
