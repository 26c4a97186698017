// Package distjob defines the job description a multi-process solve ships
// through the transport bootstrap: the coordinator (cmd/mcm -transport tcp)
// encodes a Spec into the rendezvous config blob, every worker
// (cmd/mcmrank) decodes it, and both sides rebuild a bit-identical input
// matrix and solver configuration from it. Determinism of the generators
// and of MCM-DIST then guarantees every process computes the same matching
// without ever moving the graph over the wire.
//
// The codec is versioned JSON: a decoder rejects blobs whose "v" field it
// does not understand, so coordinator and worker binaries from different
// builds fail loudly instead of diverging silently.
package distjob

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"mcmdist/internal/core"
	"mcmdist/internal/gen"
	"mcmdist/internal/matching"
	"mcmdist/internal/mpi"
	"mcmdist/internal/mtx"
	"mcmdist/internal/obs"
	"mcmdist/internal/rmat"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

// Solve runs the spec on the given endpoint (nil means an in-process world
// hosting every rank) over a, the matrix BuildMatrix rebuilds from the spec.
// The embedded Config's hooks, which never travel in the blob, apply to
// this process only: OnCheckpoint receives each phase-boundary checkpoint
// on the process hosting rank 0 (the supervisor captures the freshest one
// there to seed the next generation), and a preset Obs collector replaces
// the one the Obs* fields would build.
//
// The returned collector is the process's observability state (nil when the
// spec enables none of it): on the coordinator of a successful tcp solve it
// holds the whole world's merged observation; on workers and failed solves
// it holds the local ranks. When the spec arms the flight recorder and the
// solve dies, core.WriteFlightDump persists the collector's state before
// returning — that dump is the post-mortem, written even though the error
// unwinds.
func (s *Spec) Solve(tr mpi.Transport, a *spmat.CSC) (*core.Result, *obs.Collector, error) {
	if tr == nil {
		tr = mpi.NewInproc(s.Procs)
	}
	if s.Procs != tr.WorldSize() {
		return nil, nil, fmt.Errorf("distjob: job spec procs %d != transport world size %d", s.Procs, tr.WorldSize())
	}
	cfg, err := s.coreConfig()
	if err != nil {
		return nil, nil, err
	}
	res, err := core.SolveOn(tr, a, cfg)
	if err != nil {
		core.WriteFlightDump(s.FlightDir, s.Generation, tr.LocalRanks(), cfg.Obs, err)
	}
	return res, cfg.Obs, err
}

// Version is the current Spec codec version. Every bump is deliberate: a
// worker that silently dropped a field it does not know would solve a
// different job than the coordinator asked for. Version 2 added the engine,
// 3 the recovery plane (generation, restart policy, resume checkpoint), 4
// the observability plane and flight recorder, 5 replaced the hand-mirrored
// solver fields with the embedded core.Config schema, 6 dropped the
// restart policy (the coordinator's recovery loop alone bounds retries) and
// moved flight_dir into core.Config, 7 dropped the no_overlap,
// pull_threshold and disable_reuse solver fields, and 8 dropped the
// metrics-plane flag (binaries from either side of that change refuse each
// other's specs instead of one silently dropping the flag).
const Version = 8

// Spec describes one distributed solve: the graph source (exactly one of
// RMAT, Matrix or MTX), the solver options — the embedded core.Config,
// whose Seed also drives the generators and whose FlightDir arms the crash
// flight recorder — and the recovery and observability planes.
type Spec struct {
	// V is the codec version; Encode stamps it, Decode validates it.
	V int `json:"v"`

	// RMAT selects a synthetic R-MAT matrix by class: "g500", "ssca" or
	// "er" (Section V-B of the paper).
	RMAT string `json:"rmat,omitempty"`
	// Matrix selects a Table II stand-in by generator name.
	Matrix string `json:"matrix,omitempty"`
	// MTX carries a Matrix Market file inline. Workers may start in a
	// different filesystem namespace than the coordinator, so the content
	// travels in the spec rather than as a path.
	MTX string `json:"mtx,omitempty"`
	// Scale sizes generated matrices (2^scale vertices per side).
	Scale int `json:"scale,omitempty"`
	// EdgeFactor overrides the R-MAT nonzeros per row; 0 means the
	// class default (32, or 16 for SSCA).
	EdgeFactor int `json:"edge_factor,omitempty"`

	// Config holds the solver options. Procs must match the transport's
	// world size; every process derives its solve from the same values.
	core.Config

	// Generation counts world restarts of this job; 0 is the initial world.
	// Every restart re-runs the rendezvous under a fresh generation, so a
	// worker can tell a new world from a stale reconnect.
	Generation int `json:"generation,omitempty"`
	// Recover marks the job as supervised: a worker whose solve dies of a
	// restartable transport failure rejoins the rendezvous for the next
	// generation instead of exiting (see WorkLoop).
	Recover bool `json:"recover,omitempty"`
	// Checkpoint carries the previous generation's freshest snapshot
	// (MCMCKPT bytes) into a restarted world; every process decodes it into
	// its resume state, so generation g+1 starts exactly where g left off.
	Checkpoint []byte `json:"checkpoint,omitempty"`

	// ObsSpans enables span tracing on every process of the world. The
	// observability fields travel in the spec so the whole world observes
	// symmetrically — workers ship their share back to the coordinator at
	// solve end, where one merged artifact is produced.
	ObsSpans bool `json:"obs_spans,omitempty"`
	// ObsSeries enables the per-iteration time-series on every process.
	ObsSeries bool `json:"obs_series,omitempty"`
}

// Encode serializes the spec, stamping the codec version.
func (s *Spec) Encode() ([]byte, error) {
	c := *s
	c.V = Version
	if err := c.validate(); err != nil {
		return nil, err
	}
	return json.Marshal(&c)
}

// Decode parses and validates a blob produced by Encode.
func Decode(blob []byte) (*Spec, error) {
	if len(blob) == 0 {
		return nil, fmt.Errorf("distjob: empty job spec (coordinator sent no config blob)")
	}
	var s Spec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("distjob: bad job spec: %w", err)
	}
	if s.V != Version {
		return nil, fmt.Errorf("distjob: job spec version %d, this build speaks %d", s.V, Version)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

func (s *Spec) validate() error {
	n := 0
	for _, src := range []string{s.RMAT, s.Matrix, s.MTX} {
		if src != "" {
			n++
		}
	}
	if n != 1 {
		return fmt.Errorf("distjob: spec needs exactly one graph source (rmat, matrix or mtx), got %d", n)
	}
	if s.Procs <= 0 {
		return fmt.Errorf("distjob: procs %d must be positive", s.Procs)
	}
	if s.Generation < 0 || s.CheckpointEvery < 0 || s.WatchdogTimeout < 0 {
		return fmt.Errorf("distjob: negative recovery field (generation %d, checkpoint_every %d, watchdog %v)",
			s.Generation, s.CheckpointEvery, s.WatchdogTimeout)
	}
	if _, err := s.rmatParams(); err != nil {
		return err
	}
	return s.Config.Validate()
}

func (s *Spec) rmatParams() (rmat.Params, error) {
	switch strings.ToLower(s.RMAT) {
	case "", "g500":
		return rmat.G500, nil
	case "ssca":
		return rmat.SSCA, nil
	case "er":
		return rmat.ER, nil
	default:
		return rmat.Params{}, fmt.Errorf("distjob: unknown rmat class %q", s.RMAT)
	}
}

// BuildMatrix validates the spec and rebuilds its input matrix. The
// generators are deterministic in the spec fields, so every process gets a
// bit-identical matrix.
func (s *Spec) BuildMatrix() (*spmat.CSC, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	switch {
	case s.MTX != "":
		return mtx.Read(strings.NewReader(s.MTX))
	case s.Matrix != "":
		sp, err := gen.FindSpec(s.Matrix)
		if err != nil {
			return nil, err
		}
		return gen.Generate(sp, s.Scale)
	default:
		p, _ := s.rmatParams() // checked by validate
		ef := s.EdgeFactor
		if ef == 0 {
			ef = p.EdgeFactor()
		}
		return rmat.Generate(p, s.Scale, ef, s.Seed)
	}
}

// coreConfig completes the spec's Config for this process: the resume
// checkpoint, the observability collector, and a checkpoint handler on
// every process — the checkpoint gathers are collective, so every process
// must take part or the world deadlocks, and only the handler a caller set
// on rank 0's process (Spec.Solve) does anything with the snapshots.
func (s *Spec) coreConfig() (core.Config, error) {
	cfg := s.Config
	if cfg.CheckpointEvery > 0 && cfg.OnCheckpoint == nil {
		cfg.OnCheckpoint = func(*core.Checkpoint) {}
	}
	if len(s.Checkpoint) > 0 {
		ck, err := core.DecodeCheckpoint(s.Checkpoint)
		if err != nil {
			return core.Config{}, fmt.Errorf("distjob: generation %d resume checkpoint: %w", s.Generation, err)
		}
		cfg.Resume = ck
	}
	if cfg.Obs == nil {
		cfg.Obs = s.NewCollector()
	}
	return cfg, nil
}

// NewCollector builds the observability collector the spec's Obs* and
// FlightDir fields ask for, or nil when they ask for none. Every process
// builds the same one, so the whole world observes symmetrically. Arming
// the flight recorder implies span tracing (a dump without spans names
// nothing).
func (s *Spec) NewCollector() *obs.Collector {
	if !s.ObsSpans && !s.ObsSeries && s.FlightDir == "" {
		return nil
	}
	return obs.NewCollector(s.Procs, obs.Options{Spans: s.ObsSpans || s.FlightDir != "", TimeSeries: s.ObsSeries})
}

// WriteMatching stores a matching's pairs as "row col" lines, one per
// matched row in row order: the one output format of cmd/mcm and
// cmd/mcmrank, so the outputs of different processes and backends compare
// byte for byte.
func WriteMatching(path string, m *matching.Matching) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, j := range m.MateR {
		if j != semiring.None {
			fmt.Fprintf(w, "%d %d\n", i, j)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
