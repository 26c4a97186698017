// Package verify provides independent certificates for matching results:
// structural validity, maximality (no free edge), and maximum cardinality
// via the König–Egerváry theorem — a minimum vertex cover of the same size
// as the matching, constructed from the alternating-reachability sets. The
// certificate check never runs another matching algorithm, so it cannot
// share a bug with the solvers it audits.
package verify

import (
	"fmt"

	"mcmdist/internal/matching"
	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

// Valid checks mate-vector consistency and that matched pairs are edges.
func Valid(a *spmat.CSC, m *matching.Matching) error {
	return m.Validate(a)
}

// alternatingReach computes the sets Z_C ⊆ C and Z_R ⊆ R of vertices
// reachable from unmatched columns along alternating paths (free edge from
// C to R, matched edge from R to C).
func alternatingReach(a *spmat.CSC, m *matching.Matching) (zc, zr []bool) {
	zc = make([]bool, a.NCols)
	zr = make([]bool, a.NRows)
	var queue []int
	for j := 0; j < a.NCols; j++ {
		if m.MateC[j] == semiring.None {
			zc[j] = true
			queue = append(queue, j)
		}
	}
	for len(queue) > 0 {
		j := queue[0]
		queue = queue[1:]
		for _, i := range a.Col(j) {
			if int64(i) == m.MateC[j] || zr[i] {
				continue // matched edges are traversed R->C only
			}
			zr[i] = true
			if mj := m.MateR[i]; mj != semiring.None && !zc[mj] {
				zc[mj] = true
				queue = append(queue, int(mj))
			}
		}
	}
	return zc, zr
}

// Maximum certifies that m is a maximum cardinality matching by König's
// theorem: it builds the vertex cover K = (C \ Z_C) ∪ (R ∩ Z_R) from the
// alternating reachability sets, and checks that (a) K covers every edge
// and (b) |K| equals the matching cardinality. Any matching is at most a
// covering set's size, so equality proves maximality of cardinality.
func Maximum(a *spmat.CSC, m *matching.Matching) error {
	if err := Valid(a, m); err != nil {
		return err
	}
	zc, zr := alternatingReach(a, m)

	coverSize := 0
	inCoverC := make([]bool, a.NCols)
	inCoverR := make([]bool, a.NRows)
	for j := 0; j < a.NCols; j++ {
		if !zc[j] {
			inCoverC[j] = true
			coverSize++
		}
	}
	for i := 0; i < a.NRows; i++ {
		if zr[i] {
			inCoverR[i] = true
			coverSize++
		}
	}
	for j := 0; j < a.NCols; j++ {
		for _, i := range a.Col(j) {
			if !inCoverC[j] && !inCoverR[i] {
				return fmt.Errorf("verify: edge (%d, %d) uncovered — augmenting path exists, matching not maximum", i, j)
			}
		}
	}
	if card := m.Cardinality(); coverSize != card {
		return fmt.Errorf("verify: König cover size %d != matching cardinality %d", coverSize, card)
	}
	return nil
}

// HallViolator returns, for a graph whose maximum matching leaves columns
// unmatched, a set S of columns with |N(S)| < |S| — the Hall-condition
// violator certifying that no perfect matching of the columns can exist.
// The set is simply the alternating reachability closure of the unmatched
// columns: every row it can reach is matched back into it, so its
// neighborhood is smaller by exactly the deficiency. Returns nil when the
// matching saturates all columns. m must be a maximum matching (callers
// can certify with Maximum first).
func HallViolator(a *spmat.CSC, m *matching.Matching) []int {
	zc, zr := alternatingReach(a, m)
	var s []int
	for j, in := range zc {
		if in {
			s = append(s, j)
		}
	}
	if len(s) == 0 {
		return nil
	}
	// Sanity: |N(S)| must be < |S|; derive |N(S)| = |Z_R| by construction.
	nbr := 0
	for _, in := range zr {
		if in {
			nbr++
		}
	}
	if nbr >= len(s) {
		// Only possible if m was not maximum; refuse to emit a bogus
		// certificate.
		return nil
	}
	return s
}
