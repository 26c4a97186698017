package mpi

import (
	"fmt"

	"mcmdist/internal/obs"
)

// winState is one process's share of an RMA window: the exposed local slice
// of every rank hosted here, plus a lock per rank providing the atomicity
// MPI guarantees for accumulate-style operations. Slices of ranks hosted by
// other processes are absent — operations on them are routed through the
// transport and executed, under the owner's lock, by the owning process.
type winState struct {
	id    string
	ranks []rankWindow
}

type rankWindow struct {
	mu   chan struct{} // binary semaphore; avoids copying sync.Mutex values
	data []int64       // nil for ranks hosted by another process
}

// Win is one rank's handle on a remote-memory-access window, the analogue of
// MPI_Win. The paper's path-parallel augmentation (Algorithm 4) manipulates
// the distributed mate and parent vectors through exactly these operations.
type Win struct {
	comm *Comm
	st   *winState
}

// WinCreate collectively exposes each rank's local slice for one-sided
// access. Every rank of the communicator must call it with its own slice
// (which may be nil). The caller retains ownership of the slice; remote
// ranks access it only through Get, Put and FetchAndOp.
//
// The window id is derived collectively (communicator id plus the call's
// generation), so every process materializes the same window under the same
// id; each process registers only the slices of its own ranks. The
// collective doubles as the barrier MPI_Win_create implies — on return every member
// has registered, so one-sided traffic may start immediately.
func WinCreate(c *Comm, local []int64) *Win {
	id := fmt.Sprintf("%s/win@%d", c.st.id, c.nextGen)
	w := c.st.world
	st := w.winFor(id, c.Size())
	<-st.ranks[c.member].mu
	st.ranks[c.member].data = local
	st.ranks[c.member].mu <- struct{}{}
	// The rendezvous: an unmetered collective, exactly one collective entry
	// per member (the fault plane counts it, identically on every backend).
	c.start("win-create", make([][]int64, c.Size()), false, tally{}, nil).Wait()
	return &Win{comm: c, st: st}
}

// winFor returns the window state with the given id, materializing it (with
// size member slots) on first touch. Local registration and remote RMA
// requests both resolve windows here, under w.mu.
func (w *World) winFor(id string, size int) *winState {
	w.mu.Lock()
	defer w.mu.Unlock()
	st, ok := w.winsByID[id]
	if !ok {
		st = &winState{id: id, ranks: make([]rankWindow, size)}
		for s := range st.ranks {
			sem := make(chan struct{}, 1)
			sem <- struct{}{}
			st.ranks[s] = rankWindow{mu: sem}
		}
		w.winsByID[id] = st
	}
	return st
}

func (w *Win) lock(rank int)   { <-w.st.ranks[rank].mu }
func (w *Win) unlock(rank int) { w.st.ranks[rank].mu <- struct{}{} }

// remote reports whether the window slice of the given member rank is owned
// by another process.
func (w *Win) remote(rank int) bool {
	return !w.comm.st.world.isLocalRank(w.comm.st.ranks[rank])
}

// call routes one one-sided operation to the process hosting the target
// member and blocks for the reply. Transport failures abort the world and
// unwind the calling rank through the usual abort plane.
func (w *Win) call(rank int, req *RMAReq) *RMAResp {
	req.Win = w.st.id
	req.Member = rank
	world := w.comm.st.world
	resp, err := world.transport.RMA(world.rankToWorld(w.comm, rank), req)
	if err != nil {
		world.Abort(&TransportError{Backend: world.transport.Name(), Op: "rma", Err: err})
		panic(abortSignal{cause: world.abortReason()})
	}
	return resp
}

// rankToWorld maps a member index of c's communicator to a world rank.
func (w *World) rankToWorld(c *Comm, member int) int { return c.st.ranks[member] }

// ExecRMA executes one one-sided operation against this process's window
// registry, under the target rank's window lock. Called by transport
// receiver goroutines on behalf of remote ranks; the local fast path in
// Get/Put/FetchAndOp performs the same operations directly.
func (w *World) ExecRMA(req *RMAReq) (*RMAResp, error) {
	w.mu.Lock()
	st, ok := w.winsByID[req.Win]
	w.mu.Unlock()
	if !ok || req.Member < 0 || req.Member >= len(st.ranks) {
		return nil, fmt.Errorf("mpi: rma request against unknown window %q member %d", req.Win, req.Member)
	}
	<-st.ranks[req.Member].mu
	defer func() { st.ranks[req.Member].mu <- struct{}{} }()
	data := st.ranks[req.Member].data
	switch req.Op {
	case RMAGet:
		if req.Off < 0 || req.Off+req.N > len(data) {
			return nil, fmt.Errorf("mpi: rma get [%d:%d) outside window %q member %d (len %d)", req.Off, req.Off+req.N, req.Win, req.Member, len(data))
		}
		return &RMAResp{Data: append([]int64(nil), data[req.Off:req.Off+req.N]...)}, nil
	case RMAPut:
		if req.Off < 0 || req.Off+len(req.Data) > len(data) {
			return nil, fmt.Errorf("mpi: rma put [%d:%d) outside window %q member %d (len %d)", req.Off, req.Off+len(req.Data), req.Win, req.Member, len(data))
		}
		copy(data[req.Off:req.Off+len(req.Data)], req.Data)
		return &RMAResp{}, nil
	case RMAFetchAndOp:
		op, ok := opByCode(req.Code)
		if !ok {
			return nil, fmt.Errorf("mpi: rma fetch-and-op with unknown op code %d", req.Code)
		}
		if req.Off < 0 || req.Off >= len(data) {
			return nil, fmt.Errorf("mpi: rma fetch-and-op offset %d outside window %q member %d (len %d)", req.Off, req.Win, req.Member, len(data))
		}
		old := data[req.Off]
		data[req.Off] = op.Apply(old, req.Operand)
		return &RMAResp{Old: old}, nil
	default:
		return nil, fmt.Errorf("mpi: unknown rma op %d", req.Op)
	}
}

// Get reads n elements starting at off from rank's window. One RMA message
// unless the target is the caller itself.
func (w *Win) Get(rank, off, n int) []int64 {
	w.enterRMA("rma-get")
	tr := w.comm.tracer()
	t0 := tr.Begin()
	var out []int64
	if w.remote(rank) {
		out = w.call(rank, &RMAReq{Op: RMAGet, Off: off, N: n}).Data
	} else {
		w.lock(rank)
		out = append([]int64(nil), w.st.ranks[rank].data[off:off+n]...)
		w.unlock(rank)
	}
	if rank != w.comm.Rank() {
		w.comm.addComm(KindRMA, 1, int64(n), w.comm.rawEnc(int64(n)))
	}
	tr.End(obs.KindRMA, "rma-get", t0, int64(n))
	return out
}

// Get1 reads a single element, the common case in path-parallel augmentation.
func (w *Win) Get1(rank, off int) int64 {
	return w.Get(rank, off, 1)[0]
}

// Put writes data into rank's window starting at off.
func (w *Win) Put(rank, off int, data []int64) {
	w.enterRMA("rma-put")
	tr := w.comm.tracer()
	t0 := tr.Begin()
	if w.remote(rank) {
		w.call(rank, &RMAReq{Op: RMAPut, Off: off, Data: data})
	} else {
		w.lock(rank)
		copy(w.st.ranks[rank].data[off:off+len(data)], data)
		w.unlock(rank)
	}
	if rank != w.comm.Rank() {
		w.comm.addComm(KindRMA, 1, int64(len(data)), w.comm.rawEnc(int64(len(data))))
	}
	tr.End(obs.KindRMA, "rma-put", t0, int64(len(data)))
}

// Put1 writes a single element.
func (w *Win) Put1(rank, off int, v int64) {
	w.Put(rank, off, []int64{v})
}

// FetchAndOp atomically applies op to the element at (rank, off) with the
// given operand and returns the value held before the update, matching
// MPI_Fetch_and_op. With OpReplace it is an atomic swap.
func (w *Win) FetchAndOp(rank, off int, op ReduceOp, operand int64) int64 {
	w.enterRMA("rma-fetch-and-op")
	tr := w.comm.tracer()
	t0 := tr.Begin()
	var old int64
	if w.remote(rank) {
		old = w.call(rank, &RMAReq{Op: RMAFetchAndOp, Off: off, Code: op.Code, Operand: operand}).Old
	} else {
		w.lock(rank)
		data := w.st.ranks[rank].data
		old = data[off]
		data[off] = op.Apply(old, operand)
		w.unlock(rank)
	}
	if rank != w.comm.Rank() {
		w.comm.addComm(KindRMA, 1, 2, w.comm.rawEnc(2))
	}
	tr.End(obs.KindRMA, "rma-fetch-and-op", t0, 2)
	return old
}

// OpReplace makes FetchAndOp behave as an atomic swap (MPI_REPLACE).
var OpReplace = ReduceOp{Code: OpCodeReplace, fn: func(_, b int64) int64 { return b }}

// Fence is a collective synchronization closing an RMA epoch, the analogue
// of MPI_Win_fence.
func (w *Win) Fence() {
	w.comm.Barrier()
}
