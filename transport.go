package mcmdist

// The public transport surface: run one MaximumMatching across OS processes
// instead of goroutines. Every participating process builds (or joins) a
// Transport endpoint, then calls MaximumMatchingOn with a bit-identical
// Graph and Options; results are deterministic, so the returned matching is
// identical in every process. See docs/TRANSPORT.md for the contract, the
// wire format and the bootstrap protocol.

import (
	"mcmdist/internal/mpi"
	"mcmdist/internal/mpi/tcpnet"
)

// Transport is one process's endpoint of a multi-process world. The
// in-process simulation used by MaximumMatching is the degenerate case
// (every rank in one process); a TCP endpoint hosts one rank and reaches
// its peers over sockets.
type Transport struct {
	t mpi.Transport
}

// Close tears the endpoint down. Call it after the last MaximumMatchingOn;
// the drain is graceful (bounded by the backend's close timeout), so peers
// still finishing their result gathering are not cut off.
func (t *Transport) Close() error { return t.t.Close() }

// CoordinateTCP bootstraps a procs-rank TCP world as rank 0: listen on addr,
// wait for the procs-1 workers to JoinTCP, and exchange the roster. The
// returned endpoint hosts rank 0.
func CoordinateTCP(addr string, procs int) (tr *Transport, err error) {
	defer guard(&err)
	rv, err := tcpnet.Listen(addr, tcpnet.Options{})
	if err != nil {
		return nil, err
	}
	n, err := rv.Coordinate(procs, nil)
	if err != nil {
		return nil, err
	}
	return &Transport{t: n}, nil
}

// JoinTCP joins a TCP world being coordinated at addr, hosting the given
// rank (1 ≤ rank < world size; rank 0 is the coordinator).
func JoinTCP(addr string, rank int) (tr *Transport, err error) {
	defer guard(&err)
	n, _, err := tcpnet.Join(addr, rank, tcpnet.Options{})
	if err != nil {
		return nil, err
	}
	return &Transport{t: n}, nil
}

// LoopbackTCP builds all procs endpoints of a TCP world over 127.0.0.1 in
// this process — the socket path without the process separation, for tests
// and experiments. Endpoint i hosts rank i; each must be driven from its own
// goroutine and all of them closed.
func LoopbackTCP(procs int) (trs []*Transport, err error) {
	defer guard(&err)
	eps, err := tcpnet.Loopback(procs)
	if err != nil {
		return nil, err
	}
	out := make([]*Transport, len(eps))
	for i, ep := range eps {
		out[i] = &Transport{t: ep}
	}
	return out, nil
}

// MaximumMatchingOn is MaximumMatching over an explicit transport endpoint.
// Every process of the world calls it with its own endpoint and the same
// graph and options (opts.Procs must equal the world size). The full
// matching comes back in every process. Stats cover only the ranks this
// process hosts; Observe data does too on a worker, but on the coordinator
// (the process hosting rank 0) the solve-end collection merges every
// worker's shipped observations — clock-offset aligned — so rank 0's
// Stats.Obs covers the whole world (see ObsReport).
func MaximumMatchingOn(tr *Transport, g *Graph, opts Options) (m *Matching, st *Stats, err error) {
	if tr == nil {
		return maximumMatchingOn(nil, g, opts)
	}
	return maximumMatchingOn(tr.t, g, opts)
}
