// Coordinator-led world restart: the recovery protocol that lets a solve
// spanning OS processes survive a killed worker, a dropped link, or a
// partition. The coordinator (Supervise) runs core's one recovery loop over
// a world factory in which each generation is one complete world —
// rendezvous, solve attempt, teardown. When an attempt dies of a
// restartable failure, the loop asks for the next generation: the
// coordinator re-listens on the same address and re-runs the rendezvous
// with a spec carrying the bumped generation and the freshest
// phase-boundary checkpoint; surviving workers (WorkLoop) rejoin, and a
// SIGKILLed worker's slot is filled by whatever replacement process dials
// in. The MCM-DIST invariant — any valid matching is a legal starting state
// — is what makes the resumed generation correct: it restores the
// checkpoint's matching and continues as if the checkpoint had been its
// initializer.
package distjob

import (
	"fmt"

	"mcmdist/internal/core"
	"mcmdist/internal/mpi"
	"mcmdist/internal/mpi/tcpnet"
)

// Supervise is the coordinator side of a recoverable multi-process solve.
// It runs the spec through core.SolveRecoverable, whose world for each
// generation is one rendezvous on rv's address: the spec, stamped with the
// generation and the checkpoint it resumes from, ships to the spec.Procs-1
// workers that join, and this process hosts rank 0. The first generation
// coordinates on rv itself; later ones re-listen on its address. The
// recovery loop owns the policy — which failures restart (mpi.Restartable),
// MaxRetries, backoff, the checkpoint check, pol.Log and the flight
// recorder in spec.FlightDir; pol.Worlds is Supervise's own.
//
// The spec's CheckpointEvery should be positive for restarts to resume
// mid-solve; with checkpointing off a restarted generation simply starts
// from scratch. Supervise overwrites spec.Recover, spec.Generation and
// spec.Checkpoint; everything else is the caller's. spec.Obs, or else the
// collector the spec's Obs* fields ask for, is the template every
// generation's fresh collector copies.
func Supervise(rv *tcpnet.Rendezvous, spec *Spec, pol core.RecoveryPolicy) (*core.Result, *core.RecoveryStats, error) {
	defer func() { rv.Close() }() // harmless once Coordinate has closed it
	spec.Recover = true
	a, err := spec.BuildMatrix()
	if err != nil {
		return nil, nil, err
	}
	pol.Worlds = func(gen int, resume *core.Checkpoint) ([]mpi.Transport, error) {
		spec.Generation, spec.Checkpoint = gen, nil
		if resume != nil {
			spec.Checkpoint = resume.Encode()
		}
		blob, err := spec.Encode()
		if err != nil {
			return nil, err
		}
		if gen > 0 {
			next, err := rv.Relisten()
			if err != nil {
				return nil, err
			}
			rv = next
		}
		if pol.Log != nil {
			pol.Log("generation %d: coordinating %d-rank world at %s", gen, spec.Procs, rv.Addr())
		}
		n, err := rv.Coordinate(spec.Procs, blob)
		if err != nil {
			return nil, fmt.Errorf("distjob: rendezvous: %w", err)
		}
		return []mpi.Transport{n}, nil
	}
	cfg := spec.Config
	if cfg.Obs == nil {
		cfg.Obs = spec.NewCollector()
	}
	return core.SolveRecoverable(a, cfg, pol)
}

// WorkLoop is the worker side of a recoverable multi-process solve: Join the
// rendezvous, solve, and — when the job is supervised and the attempt died
// of a restartable failure — rejoin for the next generation, until a
// generation completes or fails terminally. With an unsupervised job
// (spec.Recover false) it behaves exactly like a single Join+Run: any
// failure surfaces immediately.
//
// Join's dial retry bridges the gap while the coordinator tears down the
// failed world and re-listens; a Join failure after the retry window means
// the coordinator is gone (it finished, gave up, or died), and its error
// surfaces alongside the generation's.
//
// faults is this worker's fault plan (nil for none). It is set on every
// generation's spec, so its budget spans the generations: a fault that
// fired in one does not fire again in the next.
func WorkLoop(addr string, rank int, opts tcpnet.Options, faults *mpi.FaultPlan, logf func(format string, args ...any)) (*core.Result, error) {
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
		spec.Fault = faults
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
