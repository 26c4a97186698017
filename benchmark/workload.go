package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"mcmdist"
)

// procs is the rank count of every workload: a 2x2 grid, the smallest with
// non-trivial row and column communicators.
const procs = 4

type kind int

const (
	// inproc solves on a DistributedGraph that is reused across solves.
	inproc kind = iota
	// tcp solves with MaximumMatchingOn on a fresh loopback TCP world of
	// procs endpoints per solve, all hosted in this process.
	tcp
	// recoverable solves through DistributedGraph.SolveRecoverable with a
	// crash injected into every solve.
	recoverable
)

// workload is one set of inputs and options the benchmark drives through the
// public mcmdist API. README.md records why each was chosen and which
// metrics it should move.
type workload struct {
	name  string
	kind  kind
	scale int
	graph func(seed int64, scale int) (*mcmdist.Graph, error)
	opts  mcmdist.Options
	// crashAt is the collective, counted on rank 1, at which a recoverable
	// workload's first attempt crashes.
	crashAt int
}

var bfsOpts = mcmdist.Options{
	Threads:   1,
	Engine:    "bfs",
	Direction: "push",
	Init:      mcmdist.DynamicMindegreeInit,
}

var workloads = []workload{
	{
		// Skewed: few BFS iterations with large frontiers, where the
		// initializer and SpMV dominate.
		name:  "rmat-bfs",
		kind:  inproc,
		scale: 16,
		graph: rmatGraph,
		opts:  bfsOpts,
	},
	{
		// High diameter: hundreds of tiny-frontier iterations, where
		// collective latency and per-iteration bookkeeping dominate.
		name:  "road-bfs",
		kind:  inproc,
		scale: 15,
		graph: roadGraph,
		opts:  bfsOpts,
	},
	{
		// The only path through socket framing, the wire codec, rendezvous,
		// teardown and the auto engine and direction choices.
		name:  "rmat-tcp-auto",
		kind:  tcp,
		scale: 14,
		graph: rmatGraph,
		opts: mcmdist.Options{
			Procs:     procs,
			Threads:   1,
			Engine:    "auto",
			Direction: "auto",
			Compress:  true,
			Init:      mcmdist.DynamicMindegreeInit,
		},
	},
	{
		// road-bfs plus a crash per solve: checkpoint encode, world
		// teardown, restore and replay. Rank 1 enters about 1300 collectives
		// per scale-15 solve, so the retry resumes from a late phase.
		name:    "road-recover",
		kind:    recoverable,
		scale:   15,
		graph:   roadGraph,
		opts:    bfsOpts,
		crashAt: 1000,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// rmatGraph is a G500 RMAT graph with edge factor 8, relabeled.
func rmatGraph(seed int64, scale int) (*mcmdist.Graph, error) {
	g, err := mcmdist.RMAT(mcmdist.G500, scale, 8, seed)
	if err != nil {
		return nil, err
	}
	return relabel(g, seed)
}

// roadGraph is the road_usa stand-in, relabeled. The generator takes no
// seed, so the relabeling is what the seed changes.
func roadGraph(seed int64, scale int) (*mcmdist.Graph, error) {
	g, err := mcmdist.TableII("road_usa", scale)
	if err != nil {
		return nil, err
	}
	return relabel(g, seed)
}

// relabel permutes the rows and the columns of g at random, the
// load-balancing relabeling of the paper's Section IV-A. It goes through the
// Matrix Market writer because the public Graph exposes no edge iterator.
func relabel(g *mcmdist.Graph, seed int64) (*mcmdist.Graph, error) {
	var buf bytes.Buffer
	if err := g.WriteMatrixMarket(&buf); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	rowPerm, colPerm := rng.Perm(g.Rows()), rng.Perm(g.Cols())
	edges := make([][2]int, 0, g.Edges())
	sc := bufio.NewScanner(&buf)
	sizeLine := true
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '%' {
			continue
		}
		if sizeLine {
			sizeLine = false
			continue
		}
		a, b, _ := strings.Cut(line, " ")
		i, err1 := strconv.Atoi(a)
		j, err2 := strconv.Atoi(b)
		if err1 != nil || err2 != nil || i < 1 || i > g.Rows() || j < 1 || j > g.Cols() {
			return nil, fmt.Errorf("relabel: bad Matrix Market entry %q", line)
		}
		edges = append(edges, [2]int{rowPerm[i-1], colPerm[j-1]})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return mcmdist.FromEdges(g.Rows(), g.Cols(), edges)
}

// instance is one workload's input for one round: the graph, its
// distribution (none for tcp, which distributes inside every solve), and the
// verified reference matching every solve must reproduce bit for bit.
type instance struct {
	g   *mcmdist.Graph
	dg  *mcmdist.DistributedGraph
	ref *mcmdist.Matching
}

func (in *instance) close() {
	if in.dg != nil {
		in.dg.Close()
	}
}

// setup generates and distributes the round's graph, timing each step.
func (w *workload) setup(seed int64, scale int) (in *instance, gen, dist time.Duration, err error) {
	t0 := time.Now()
	g, err := w.graph(seed, scale)
	gen = time.Since(t0)
	if err != nil {
		return nil, gen, 0, fmt.Errorf("%s: generate: %w", w.name, err)
	}
	in = &instance{g: g}
	if w.kind != tcp {
		t1 := time.Now()
		in.dg, err = mcmdist.Distribute(g, procs)
		dist = time.Since(t1)
		if err != nil {
			return nil, gen, dist, fmt.Errorf("%s: distribute: %w", w.name, err)
		}
	}
	return in, gen, dist, nil
}

// reference runs the plain in-process solve with the workload's options: the
// workload's own solve for inproc, the same solve without the sockets for
// tcp, and without the crash and checkpoints for recoverable.
func (w *workload) reference(in *instance) (*mcmdist.Matching, time.Duration, error) {
	t0 := time.Now()
	var m *mcmdist.Matching
	var err error
	if in.dg != nil {
		m, _, err = in.dg.MaximumMatching(w.opts)
	} else {
		m, _, err = mcmdist.MaximumMatching(in.g, w.opts)
	}
	return m, time.Since(t0), err
}

// verifyReference certifies the reference matching: its cardinality must
// equal the serial Hopcroft–Karp oracle's and it must pass the König check.
func verifyReference(g *mcmdist.Graph, m *mcmdist.Matching) error {
	hk, err := mcmdist.MaximumMatchingSerial(g, mcmdist.HopcroftKarp, nil)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if m.Cardinality() != hk.Cardinality() {
		return fmt.Errorf("cardinality %d, Hopcroft–Karp oracle %d", m.Cardinality(), hk.Cardinality())
	}
	if err := g.VerifyMaximum(m); err != nil {
		return fmt.Errorf("König check: %w", err)
	}
	return nil
}

// sample is one solve as the benchmark saw it.
type sample struct {
	// latency runs from the solve call to a returned matching (on tcp from
	// the first MaximumMatchingOn call to the last endpoint's return); cycle
	// adds what a caller pays around it: world bootstrap and close on tcp.
	latency, cycle time.Duration
	boot, close    time.Duration // tcp only
	mates          []*mcmdist.Matching
	stats          []*mcmdist.Stats // one per endpoint on tcp
	rec            *mcmdist.Recovery
	err            error
}

func (w *workload) solve(in *instance, observe *mcmdist.Observe) sample {
	opts := w.opts
	opts.Observe = observe
	switch w.kind {
	case tcp:
		return solveTCP(in.g, opts)
	case recoverable:
		// Checkpoint after every phase and crash once per solve, so every
		// solve runs exactly two attempts.
		pol := mcmdist.RecoveryPolicy{
			CheckpointEvery: 1,
			Fault:           &mcmdist.FaultSpec{CrashRank: 1, CrashAtCollective: w.crashAt},
		}
		t0 := time.Now()
		m, st, rec, err := in.dg.SolveRecoverable(opts, pol)
		d := time.Since(t0)
		return sample{latency: d, cycle: d, mates: []*mcmdist.Matching{m}, stats: []*mcmdist.Stats{st}, rec: rec, err: err}
	default:
		t0 := time.Now()
		m, st, err := in.dg.MaximumMatching(opts)
		d := time.Since(t0)
		return sample{latency: d, cycle: d, mates: []*mcmdist.Matching{m}, stats: []*mcmdist.Stats{st}, err: err}
	}
}

// solveTCP bootstraps a loopback world, solves on every endpoint at once and
// closes the endpoints at once. An endpoint serves one solve.
func solveTCP(g *mcmdist.Graph, opts mcmdist.Options) sample {
	var s sample
	t0 := time.Now()
	trs, err := mcmdist.LoopbackTCP(procs)
	s.boot = time.Since(t0)
	if err != nil {
		s.cycle, s.err = s.boot, fmt.Errorf("bootstrap: %w", err)
		return s
	}
	s.mates = make([]*mcmdist.Matching, len(trs))
	s.stats = make([]*mcmdist.Stats, len(trs))
	errs := make([]error, 2*len(trs))
	var wg sync.WaitGroup
	t1 := time.Now()
	for i, tr := range trs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.mates[i], s.stats[i], errs[i] = mcmdist.MaximumMatchingOn(tr, g, opts)
		}()
	}
	wg.Wait()
	s.latency = time.Since(t1)
	t2 := time.Now()
	for i, tr := range trs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[len(trs)+i] = tr.Close()
		}()
	}
	wg.Wait()
	s.close = time.Since(t2)
	s.cycle = s.boot + s.latency + s.close
	s.err = errors.Join(errs...)
	return s
}

// check returns why s is not a correct solve of in, or nil: the solve must
// succeed, every endpoint must return the reference matching bit for bit,
// and a recoverable solve must have been retried exactly once.
func (w *workload) check(in *instance, s sample) error {
	if s.err != nil {
		return s.err
	}
	for i, m := range s.mates {
		if !sameMatching(m, in.ref) {
			return fmt.Errorf("endpoint %d: mates differ from the verified reference", i)
		}
	}
	if w.kind == recoverable && (s.rec == nil || s.rec.Attempts != 2) {
		return fmt.Errorf("recovery did not run exactly two attempts: %+v", s.rec)
	}
	return nil
}

func sameMatching(a, b *mcmdist.Matching) bool {
	return a != nil && slices.Equal(a.MateR, b.MateR) && slices.Equal(a.MateC, b.MateC)
}
