// Package costmodel evaluates the paper's alpha-beta machine model (Section
// IV-B): an algorithm that performs F local operations, sends S messages and
// moves W words takes T = F + alpha*S + beta*W, with alpha the per-message
// latency and beta the per-word inverse bandwidth. The simulated MPI runtime
// meters (F, S, W) exactly per rank; this package turns those meters into
// modeled wall-clock seconds for a target machine, which is how the
// repository reproduces the shape of the paper's Edison (Cray XC30) scaling
// figures at process counts far beyond the host's physical cores.
package costmodel

import (
	"fmt"

	"mcmdist/internal/mpi"
)

// Machine holds the three model constants, all in seconds.
type Machine struct {
	Name  string
	TOp   float64 // time per local graph operation (memory-bound edge visit)
	Alpha float64 // per-message latency
	Beta  float64 // per 8-byte word transfer time
}

// Edison approximates a Cray XC30 node on the Aries dragonfly interconnect:
// ~1.5 microseconds MPI latency, ~6.4 GB/s effective per-process bandwidth
// (beta = 1.25 ns per 8-byte word), and ~2 ns per memory-bound graph edge
// operation on a 2.4 GHz Ivy Bridge core.
var Edison = Machine{Name: "edison-xc30", TOp: 2e-9, Alpha: 1.5e-6, Beta: 1.25e-9}

// Laptop approximates the simulation host itself, for sanity comparisons.
var Laptop = Machine{Name: "laptop", TOp: 1.5e-9, Alpha: 4e-7, Beta: 2.5e-10}

// Time converts one rank's meter into modeled seconds with the given
// intra-rank thread count dividing the local-work term (the paper's hybrid
// OpenMP-MPI model: local computation is fully multithreaded, communication
// is funneled through one thread per rank).
func (m Machine) Time(meter mpi.Meter, threads int) float64 {
	if threads < 1 {
		threads = 1
	}
	return float64(meter.Work)*m.TOp/float64(threads) +
		float64(meter.Msgs)*m.Alpha +
		float64(meter.Words)*m.Beta
}

// CriticalTime models the run's critical path as the maximum per-rank
// modeled time, appropriate for the load-balanced bulk-synchronous phases
// the random permutation of Section IV-A aims for.
func (m Machine) CriticalTime(perRank []mpi.Meter, threads int) float64 {
	var worst float64
	for _, meter := range perRank {
		if t := m.Time(meter, threads); t > worst {
			worst = t
		}
	}
	return worst
}

// Breakdown converts a per-category meter map into per-category modeled
// seconds.
func (m Machine) Breakdown(meters map[string]mpi.Meter, threads int) map[string]float64 {
	out := make(map[string]float64, len(meters))
	for k, meter := range meters {
		out[k] = m.Time(meter, threads)
	}
	return out
}

// GatherScatter models the Section VI-E experiment (Fig. 9): collecting a
// distributed graph with nnz edges and n+n mate entries onto one rank and
// scattering the mate vectors back, on p ranks. The gather moves 2 words per
// edge to rank 0 (p-1 messages there, 1 from each leaf); the scatter moves 2n
// words of mate vectors back out. Rank 0's cost dominates and is returned.
func (m Machine) GatherScatter(nnz, n, p int) float64 {
	if p < 2 {
		return 0
	}
	gatherWords := float64(2 * nnz)
	scatterWords := float64(2 * n)
	msgs := float64(2 * (p - 1))
	return msgs*m.Alpha + (gatherWords+scatterWords)*m.Beta
}

// String formats the machine constants.
func (m Machine) String() string {
	return fmt.Sprintf("%s(t_op=%.2gs, alpha=%.2gs, beta=%.2gs)", m.Name, m.TOp, m.Alpha, m.Beta)
}

// PullCrossover returns the frontier fraction (of the column count) at which
// the alpha-beta model predicts a bottom-up ("pull") SpMV iteration becomes
// cheaper than the top-down ("push") one, used online as the initial switch
// threshold of the direction-optimizing BFS (docs/KERNELS.md). Per frontier
// column, push traverses avgDeg edges and folds ~avgDeg candidate triples
// (three words each); per column of the slab, pull pays one early-exit scan
// step plus roughly one word of visited-set replication. Equating the two
// per-column costs at frontier fraction x:
//
//	x·avgDeg·(TOp/threads + 3β) = TOp/threads + β
//
// and solving for x. The result is clamped to [1/64, 1/2]: below the floor
// the switch would thrash on noise; above the ceiling pull could never
// engage on the frontier shapes MS-BFS produces. Callers pass the machine
// being modeled (the host for real timing, Edison for modeled figures).
func PullCrossover(m Machine, threads int, avgDeg float64) float64 {
	if threads < 1 {
		threads = 1
	}
	if avgDeg < 1 {
		avgDeg = 1
	}
	op := m.TOp / float64(threads)
	x := (op + m.Beta) / (avgDeg * (op + 3*m.Beta))
	if x < 1.0/64 {
		x = 1.0 / 64
	}
	if x > 0.5 {
		x = 0.5
	}
	return x
}

// EdisonMini is Edison rescaled for the miniature inputs this repository
// runs in-process. The stand-in matrices are three to five orders of
// magnitude smaller than the paper's (10^4 vertices instead of 10^7..10^9),
// so per-rank work and message volumes shrink by the same factor while
// Edison's absolute per-message latency does not; using Edison's constants
// directly would place every miniature run in an extreme latency-bound
// regime the paper only reaches beyond ~10^4 cores. EdisonMini keeps TOp,
// scales alpha by the input-size ratio (~1500x) and doubles beta (short
// messages achieve lower effective bandwidth), preserving the relative
// magnitudes of the three cost terms — F, alpha*S, beta*W — that Edison
// exhibits at the paper's input sizes. Scaling *shapes* (who wins, where
// curves flatten) are therefore comparable; absolute times are not, and
// EXPERIMENTS.md only ever compares shapes.
var EdisonMini = Machine{Name: "edison-mini", TOp: 2e-9, Alpha: 1e-9, Beta: 2.5e-9}
