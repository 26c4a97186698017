// Package matching implements the serial bipartite matching algorithms the
// paper builds on:
//
//   - the three maximal-matching initializers of Section II-A and VI-A:
//     greedy, Karp–Sipser, and dynamic mindegree;
//   - Hopcroft–Karp, the asymptotically best augmenting-path MCM algorithm,
//     used here as the correctness oracle.
//
// The bipartite graph G = (R, C, E) is given as an n1 x n2 pattern matrix:
// rows are R vertices, columns are C vertices.
package matching

import (
	"fmt"

	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

// Matching holds the mate vectors of a bipartite matching: MateR[i] is the
// column matched to row i and MateC[j] the row matched to column j, with
// semiring.None (-1) marking unmatched vertices.
type Matching struct {
	MateR, MateC []int64
}

// NewMatching returns an empty matching for an n1 x n2 graph.
func NewMatching(n1, n2 int) *Matching {
	m := &Matching{MateR: make([]int64, n1), MateC: make([]int64, n2)}
	for i := range m.MateR {
		m.MateR[i] = semiring.None
	}
	for j := range m.MateC {
		m.MateC[j] = semiring.None
	}
	return m
}

// Clone returns a deep copy.
func (m *Matching) Clone() *Matching {
	return &Matching{
		MateR: append([]int64(nil), m.MateR...),
		MateC: append([]int64(nil), m.MateC...),
	}
}

// Cardinality returns the number of matched edges.
func (m *Matching) Cardinality() int {
	n := 0
	for _, v := range m.MateC {
		if v != semiring.None {
			n++
		}
	}
	return n
}

// Match records the edge (row i, column j) as matched.
func (m *Matching) Match(i, j int) {
	m.MateR[i] = int64(j)
	m.MateC[j] = int64(i)
}

// Validate checks structural soundness against the graph: mate vectors are
// mutually consistent, within range, and every matched pair is an edge.
func (m *Matching) Validate(a *spmat.CSC) error {
	if len(m.MateR) != a.NRows || len(m.MateC) != a.NCols {
		return fmt.Errorf("matching: mate vector lengths %d, %d vs graph %d x %d",
			len(m.MateR), len(m.MateC), a.NRows, a.NCols)
	}
	for i, j := range m.MateR {
		if j == semiring.None {
			continue
		}
		if j < 0 || int(j) >= a.NCols {
			return fmt.Errorf("matching: MateR[%d] = %d out of range", i, j)
		}
		if m.MateC[j] != int64(i) {
			return fmt.Errorf("matching: MateR[%d] = %d but MateC[%d] = %d", i, j, j, m.MateC[j])
		}
		if !a.Has(i, int(j)) {
			return fmt.Errorf("matching: matched pair (%d, %d) is not an edge", i, j)
		}
	}
	for j, i := range m.MateC {
		if i == semiring.None {
			continue
		}
		if i < 0 || int(i) >= a.NRows {
			return fmt.Errorf("matching: MateC[%d] = %d out of range", j, i)
		}
		if m.MateR[i] != int64(j) {
			return fmt.Errorf("matching: MateC[%d] = %d but MateR[%d] = %d", j, i, i, m.MateR[i])
		}
	}
	return nil
}

// IsMaximal reports whether no edge joins two unmatched vertices.
func (m *Matching) IsMaximal(a *spmat.CSC) bool {
	for j := 0; j < a.NCols; j++ {
		if m.MateC[j] != semiring.None {
			continue
		}
		for _, i := range a.Col(j) {
			if m.MateR[i] == semiring.None {
				return false
			}
		}
	}
	return true
}

// cloneOrEmpty duplicates init, or builds an empty matching when init is nil.
func cloneOrEmpty(a *spmat.CSC, init *Matching) *Matching {
	if init == nil {
		return NewMatching(a.NRows, a.NCols)
	}
	return init.Clone()
}
