package mpi

import "fmt"

// Inproc is the in-process backend: every rank of the world is a goroutine
// in this process, so all mailbox traffic rides the package's historical
// chan/cond engine and nothing ever crosses the fabric. It preserves the
// pre-transport semantics bit-for-bit — same metering, same fault and
// watchdog behavior, same buffer aliasing — which is why it stays the test
// and CI oracle that every other backend is pinned against.
type Inproc struct {
	size  int
	local []int
}

// NewInproc returns the in-process endpoint of a size-rank world, hosting
// every rank.
func NewInproc(size int) *Inproc {
	local := make([]int, size)
	for i := range local {
		local[i] = i
	}
	return &Inproc{size: size, local: local}
}

// Name returns "inproc".
func (t *Inproc) Name() string { return "inproc" }

// WorldSize returns the rank count.
func (t *Inproc) WorldSize() int { return t.size }

// LocalRanks returns every world rank: in-process worlds host all of them.
func (t *Inproc) LocalRanks() []int { return t.local }

// Bind is a no-op: inbound delivery is the local mailbox itself.
func (t *Inproc) Bind(*World) error { return nil }

// Post is never invoked — there are no remote members to ship to.
func (t *Inproc) Post(msg *PostMsg) error {
	panic(fmt.Sprintf("mpi: inproc transport asked to ship %s gen %d on %q — no remote ranks exist", msg.Op, msg.Gen, msg.Comm))
}

// RMA is never invoked — every window slice is local.
func (t *Inproc) RMA(rank int, req *RMAReq) (*RMAResp, error) {
	panic(fmt.Sprintf("mpi: inproc transport asked for remote RMA op %d on rank %d — no remote ranks exist", req.Op, rank))
}

// Abort is a no-op: there are no peers to notify.
func (t *Inproc) Abort(string) {}

// Close is a no-op: there is nothing to tear down.
func (t *Inproc) Close() error { return nil }
