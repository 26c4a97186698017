package matching

import (
	"fmt"

	"mcmdist/internal/semiring"
	"mcmdist/internal/spmat"
)

// certifyMaximum checks m the way the tests of this package trust a
// maximum matching: it must pass Validate, and by Berge's theorem no
// augmenting path may leave any unmatched column, so the hopelessness sweep
// must retire every one of them. internal/verify's König certificate
// cannot be used here: verify imports this package.
func certifyMaximum(a *spmat.CSC, m *Matching) error {
	if err := m.Validate(a); err != nil {
		return err
	}
	retired := make([]bool, a.NCols)
	retireHopeless(a, a.Transpose(), m, retired)
	for j, done := range retired {
		if !done && m.MateC[j] == semiring.None {
			return fmt.Errorf("matching: unmatched column %d still has an augmenting path (|M| = %d)", j, m.Cardinality())
		}
	}
	return nil
}

// retireHopeless marks every column with no augmenting path under the
// current matching: a column can be augmented iff it is reachable by the
// reverse alternating BFS from the unmatched rows (row -> column along any
// free edge, column -> its mate row). One O(m) sweep; retirement is
// permanent because augmenting paths never reappear once gone.
func retireHopeless(a, at *spmat.CSC, m *Matching, retired []bool) {
	canAugment := make([]bool, a.NCols)
	visitedR := make([]bool, a.NRows)
	var queueR []int
	for i := 0; i < a.NRows; i++ {
		if m.MateR[i] == semiring.None {
			visitedR[i] = true
			queueR = append(queueR, i)
		}
	}
	for len(queueR) > 0 {
		r := queueR[len(queueR)-1]
		queueR = queueR[:len(queueR)-1]
		for _, c := range at.Col(r) {
			if canAugment[c] {
				continue
			}
			canAugment[c] = true
			if mi := m.MateC[c]; mi != semiring.None && !visitedR[mi] {
				visitedR[mi] = true
				queueR = append(queueR, int(mi))
			}
		}
	}
	for j := range retired {
		if !canAugment[j] && m.MateC[j] == semiring.None {
			retired[j] = true
		}
	}
}
