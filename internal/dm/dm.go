// Package dm computes the coarse Dulmage–Mendelsohn decomposition of a
// bipartite graph from a maximum cardinality matching. The decomposition is
// the classic consumer of the matchings this repository computes: sparse
// direct solvers (the paper's motivating application, Section I) use it to
// permute a matrix into block triangular form, splitting it into an
// underdetermined horizontal block, a square block with a perfect matching,
// and an overdetermined vertical block.
package dm

import (
	"fmt"

	"mcmdist/internal/matching"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

// Coarse is the coarse Dulmage–Mendelsohn decomposition. Rows partition
// into HR ∪ SR ∪ VR and columns into HC ∪ SC ∪ VC:
//
//   - (HR, HC): the horizontal (underdetermined) block — every vertex
//     reachable by alternating paths from some unmatched row. All unmatched
//     rows live here, |HC| ≤ |HR| is wrong way; |HR| ≥ ... every HC column
//     is matched into HR.
//   - (SR, SC): the square block — untouched by either reachability sweep;
//     the matching restricted to it is perfect, so |SR| = |SC|.
//   - (VR, VC): the vertical (overdetermined) block — reachable from some
//     unmatched column. All unmatched columns live here and every VR row is
//     matched into VC.
//
// Ordering rows (HR, SR, VR) and columns (HC, SC, VC) puts the matrix in
// block upper/lower triangular form: no edge connects VC to a row outside
// VR, and no edge connects HR to a column outside HC.
type Coarse struct {
	HR, SR, VR []int
	HC, SC, VC []int
}

// reach marks vertices reachable by alternating paths. With fromRows=false
// it starts at unmatched columns and alternates free edges C→R with matched
// edges R→C; with fromRows=true it starts at unmatched rows and alternates
// free edges R→C with matched edges C→R (which needs the transpose at).
func reach(a, at *spmat.CSC, m *matching.Matching, fromRows bool) (rows, cols []bool) {
	rows = make([]bool, a.NRows)
	cols = make([]bool, a.NCols)
	var queueR, queueC []int
	if fromRows {
		for i := 0; i < a.NRows; i++ {
			if m.MateR[i] == semiring.None {
				rows[i] = true
				queueR = append(queueR, i)
			}
		}
	} else {
		for j := 0; j < a.NCols; j++ {
			if m.MateC[j] == semiring.None {
				cols[j] = true
				queueC = append(queueC, j)
			}
		}
	}
	for len(queueR) > 0 || len(queueC) > 0 {
		if fromRows {
			// R -> C via any edge, C -> R via the matched edge.
			for len(queueR) > 0 {
				i := queueR[len(queueR)-1]
				queueR = queueR[:len(queueR)-1]
				for _, j := range at.Col(i) {
					if !cols[j] {
						cols[j] = true
						queueC = append(queueC, j)
					}
				}
			}
			for len(queueC) > 0 {
				j := queueC[len(queueC)-1]
				queueC = queueC[:len(queueC)-1]
				if mi := m.MateC[j]; mi != semiring.None && !rows[mi] {
					rows[mi] = true
					queueR = append(queueR, int(mi))
				}
			}
		} else {
			// C -> R via any edge, R -> C via the matched edge.
			for len(queueC) > 0 {
				j := queueC[len(queueC)-1]
				queueC = queueC[:len(queueC)-1]
				for _, i := range a.Col(j) {
					if !rows[i] {
						rows[i] = true
						queueR = append(queueR, i)
					}
				}
			}
			for len(queueR) > 0 {
				i := queueR[len(queueR)-1]
				queueR = queueR[:len(queueR)-1]
				if mj := m.MateR[i]; mj != semiring.None && !cols[mj] {
					cols[mj] = true
					queueC = append(queueC, int(mj))
				}
			}
		}
	}
	return rows, cols
}

// Decompose computes the coarse decomposition. m must be a valid maximum
// cardinality matching of a; Decompose verifies the structural facts the
// decomposition relies on and reports an error otherwise.
func Decompose(a *spmat.CSC, m *matching.Matching) (*Coarse, error) {
	if err := m.Validate(a); err != nil {
		return nil, err
	}
	at := a.Transpose()
	vRows, vCols := reach(a, at, m, false) // from unmatched columns
	hRows, hCols := reach(a, at, m, true)  // from unmatched rows

	// For a maximum matching the two reachability sweeps are disjoint: a
	// vertex in both would lie on an augmenting path.
	for i := 0; i < a.NRows; i++ {
		if vRows[i] && hRows[i] {
			return nil, fmt.Errorf("dm: row %d reachable from both sides — matching is not maximum", i)
		}
	}
	for j := 0; j < a.NCols; j++ {
		if vCols[j] && hCols[j] {
			return nil, fmt.Errorf("dm: column %d reachable from both sides — matching is not maximum", j)
		}
	}

	c := &Coarse{}
	for i := 0; i < a.NRows; i++ {
		switch {
		case hRows[i]:
			c.HR = append(c.HR, i)
		case vRows[i]:
			c.VR = append(c.VR, i)
		default:
			c.SR = append(c.SR, i)
		}
	}
	for j := 0; j < a.NCols; j++ {
		switch {
		case hCols[j]:
			c.HC = append(c.HC, j)
		case vCols[j]:
			c.VC = append(c.VC, j)
		default:
			c.SC = append(c.SC, j)
		}
	}
	if len(c.SR) != len(c.SC) {
		return nil, fmt.Errorf("dm: square block %d x %d is not square (internal error)", len(c.SR), len(c.SC))
	}
	return c, nil
}

// String summarizes the block sizes.
func (c *Coarse) String() string {
	return fmt.Sprintf("dm: horizontal %dx%d, square %dx%d, vertical %dx%d",
		len(c.HR), len(c.HC), len(c.SR), len(c.SC), len(c.VR), len(c.VC))
}
