// Coordinator-led world restart: the recovery protocol that lets a solve
// spanning OS processes survive a killed worker, a dropped link, or a
// partition. The coordinator (Supervise) owns a generation counter; each
// generation is one complete world — rendezvous, solve attempt, teardown.
// When an attempt dies of a restartable failure, the coordinator re-listens
// on the same address and re-runs the rendezvous with a spec carrying the
// bumped generation and the freshest phase-boundary checkpoint; surviving
// workers (WorkLoop) rejoin, and a SIGKILLed worker's slot is filled by
// whatever replacement process dials in. The MCM-DIST invariant — any valid
// matching is a legal starting state — is what makes the resumed generation
// correct: it restores the checkpoint's matching and continues as if the
// checkpoint had been its initializer.
package distjob

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"mcmdist/internal/core"
	"mcmdist/internal/mpi"
	"mcmdist/internal/mpi/tcpnet"
	"mcmdist/internal/obs"
	"mcmdist/internal/spmat"
)

// SupervisePolicy bounds the coordinator's restart loop.
type SupervisePolicy struct {
	// MaxRestarts is how many fresh generations a failed world may get
	// before the last error is surfaced. Zero means 3.
	MaxRestarts int
	// Backoff is the pause before re-listening for the next generation
	// (letting the failed generation's sockets die down), doubling each
	// restart up to MaxBackoff. Zero means 50ms.
	Backoff time.Duration
	// MaxBackoff caps the exponential backoff. Zero means 2s.
	MaxBackoff time.Duration
	// Log, when non-nil, receives one progress line per generation event.
	Log func(format string, args ...any)
	// OnListen, when non-nil, receives the pinned rendezvous address once
	// the first generation's listener is up — the address workers must
	// Join. With an explicit addr it echoes it; with ":0" it is the only
	// way to learn the kernel-chosen port (the in-process tests depend on
	// this; a deployment would pass a concrete address).
	OnListen func(addr string)
}

func (p SupervisePolicy) withDefaults() SupervisePolicy {
	if p.MaxRestarts <= 0 {
		p.MaxRestarts = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	if p.Log == nil {
		p.Log = func(string, ...any) {}
	}
	return p
}

// SuperviseStats reports what the supervisor did across generations.
type SuperviseStats struct {
	// Generations counts worlds run (1 when no restart was needed);
	// Restarts is Generations minus one unless the last world also failed.
	Generations, Restarts int
	// ResumedPhase is the phase the final generation restarted from
	// (0 when it started fresh or from the initializer snapshot).
	ResumedPhase int
	// Errors collects each failed generation's error, in order.
	Errors []error
	// FlightDumps lists the flight-recorder dump files accumulated in the
	// spec's FlightDir across failed generations — the coordinator's own
	// dumps plus those of any worker sharing the directory — sorted by
	// path, so the post-mortem bundle of a recovered solve survives the
	// generations that produced it.
	FlightDumps []string
	// Obs is the final generation's collector (nil when the spec enables no
	// observability): after a successful generation it holds the merged
	// whole-world observation, ready for WriteTrace and friends.
	Obs *obs.Collector
}

// collectFlightDumps scans dir for flight-recorder dumps and folds any new
// paths into the stats, keeping the list sorted and duplicate-free.
func (st *SuperviseStats) collectFlightDumps(dir string) {
	if dir == "" {
		return
	}
	paths, err := filepath.Glob(filepath.Join(dir, "flight-g*.dump"))
	if err != nil {
		return
	}
	have := make(map[string]bool, len(st.FlightDumps))
	for _, p := range st.FlightDumps {
		have[p] = true
	}
	for _, p := range paths {
		if !have[p] {
			st.FlightDumps = append(st.FlightDumps, p)
		}
	}
	sort.Strings(st.FlightDumps)
}

// Supervise is the coordinator side of a recoverable multi-process solve:
// rank 0's supervisor loop. Each generation it listens on addr, coordinates
// a spec.Procs-rank rendezvous shipping the spec (stamped with the
// generation number and, after a failure, the freshest checkpoint), runs
// rank 0's share of the solve, and tears the world down. Failures that
// mpi.Restartable classifies as transport-level start the next generation;
// anything else — an algorithm error, a genuine panic — surfaces
// immediately, because restarting would only reproduce it.
//
// The spec's CheckpointEvery should be positive for restarts to resume
// mid-solve; with checkpointing off a restarted generation simply starts
// from scratch. Supervise overwrites spec.Recover, spec.Generation,
// spec.MaxRestarts, spec.Checkpoint and spec.OnCheckpoint; everything else
// is the caller's. spec.Obs must be nil: every generation observes into a
// fresh collector.
func Supervise(addr string, spec *Spec, opts tcpnet.Options, pol SupervisePolicy) (*core.Result, *SuperviseStats, error) {
	pol = pol.withDefaults()
	stats := &SuperviseStats{}
	spec.Recover = true
	spec.MaxRestarts = pol.MaxRestarts
	a, err := spec.BuildMatrix()
	if err != nil {
		return nil, stats, err
	}

	var last *core.Checkpoint
	spec.OnCheckpoint = func(ck *core.Checkpoint) { last = ck }
	backoff := pol.Backoff
	for gen := 0; ; gen++ {
		stats.Generations++
		spec.Generation = gen
		spec.Checkpoint = nil
		if last != nil {
			spec.Checkpoint = last.Encode()
			stats.ResumedPhase = last.Phase
		}
		blob, err := spec.Encode()
		if err != nil {
			return nil, stats, err
		}
		rv, err := tcpnet.Listen(addr, opts)
		if err != nil {
			return nil, stats, fmt.Errorf("distjob: generation %d listen: %w", gen, err)
		}
		if gen == 0 {
			// Pin the kernel-chosen port (":0" listens) so every later
			// generation rendezvouses at the address the workers know.
			addr = rv.Addr()
			if pol.OnListen != nil {
				pol.OnListen(addr)
			}
		}
		pol.Log("generation %d: coordinating %d-rank world at %s", gen, spec.Procs, addr)
		res, col, err := superviseGeneration(rv, spec, blob, a)
		stats.Obs = col
		if err == nil {
			pol.Log("generation %d: solve complete", gen)
			return res, stats, nil
		}
		stats.Errors = append(stats.Errors, err)
		stats.collectFlightDumps(spec.FlightDir)
		if !mpi.Restartable(err) {
			return nil, stats, fmt.Errorf("distjob: generation %d failed terminally: %w", gen, err)
		}
		if stats.Restarts >= pol.MaxRestarts {
			return nil, stats, fmt.Errorf("distjob: giving up after %d generations: %w", stats.Generations, err)
		}
		stats.Restarts++
		resume := "from scratch"
		if last != nil {
			resume = fmt.Sprintf("from phase %d checkpoint", last.Phase)
		}
		pol.Log("generation %d failed (%v); restarting %s", gen, err, resume)
		time.Sleep(backoff)
		if backoff *= 2; backoff > pol.MaxBackoff {
			backoff = pol.MaxBackoff
		}
	}
}

// superviseGeneration runs one world: coordinate the rendezvous, solve rank
// 0's share over a, and always tear the endpoint down before returning so
// the next generation can re-listen cleanly.
func superviseGeneration(rv *tcpnet.Rendezvous, spec *Spec, blob []byte, a *spmat.CSC) (*core.Result, *obs.Collector, error) {
	n, err := rv.Coordinate(spec.Procs, blob)
	if err != nil {
		rv.Close()
		return nil, nil, fmt.Errorf("distjob: rendezvous: %w", err)
	}
	defer n.Close()
	return spec.Solve(n, a)
}

// WorkLoop is the worker side of a recoverable multi-process solve: Join the
// rendezvous, solve, and — when the job is supervised and the attempt died
// of a restartable failure — rejoin for the next generation, until a
// generation completes or fails terminally. With an unsupervised job
// (spec.Recover false, as every pre-v3 coordinator ships) it behaves exactly
// like a single Join+Run: any failure surfaces immediately.
//
// Join's dial retry bridges the gap while the coordinator tears down the
// failed world and re-listens; a Join failure after the retry window means
// the coordinator is gone (it finished, gave up, or died), and its error
// surfaces alongside the generation's.
func WorkLoop(addr string, rank int, opts tcpnet.Options, logf func(format string, args ...any)) (*core.Result, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	for {
		n, blob, err := tcpnet.Join(addr, rank, opts)
		if err != nil {
			return nil, err
		}
		spec, err := Decode(blob)
		if err != nil {
			n.Close()
			return nil, err
		}
		if spec.Generation > 0 {
			logf("rejoined as generation %d", spec.Generation)
		}
		a, err := spec.BuildMatrix()
		if err != nil {
			n.Close()
			return nil, err
		}
		res, _, err := spec.Solve(n, a)
		n.Close()
		if err == nil {
			return res, nil
		}
		if !spec.Recover || !mpi.Restartable(err) {
			return nil, err
		}
		logf("generation %d failed (%v); rejoining %s", spec.Generation, err, addr)
	}
}
