package mpi

// Tests for the buffer-lending collective variants (AllgathervInto,
// AlltoallvFlat): each must agree byte-for-byte with its
// copying counterpart, meter identically, and never alias caller memory.

import (
	"fmt"
	"testing"
)

func rankPayload(rank, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(rank*1000 + i)
	}
	return out
}

// TestAllgathervIntoMatchesCopy: flat result equals the rank-order
// concatenation of Allgatherv, with identical metering, and the result does
// not alias the caller's send buffer.
func TestAllgathervIntoMatchesCopy(t *testing.T) {
	const p = 4
	w, err := Run(p, func(c *Comm) error {
		data := rankPayload(c.Rank(), c.Rank()+1) // ragged sizes
		before := c.MeterSnapshot()
		copied := c.Allgatherv(data)
		copyCost := c.MeterSnapshot().Sub(before)

		buf := make([]int64, 0, 4)
		before = c.MeterSnapshot()
		flat := c.AllgathervInto(data, buf)
		intoCost := c.MeterSnapshot().Sub(before)

		if copyCost != intoCost {
			return fmt.Errorf("rank %d: Into metered %+v, copy metered %+v", c.Rank(), intoCost, copyCost)
		}
		var want []int64
		for _, part := range copied {
			want = append(want, part...)
		}
		if len(flat) != len(want) {
			return fmt.Errorf("rank %d: flat len %d, want %d", c.Rank(), len(flat), len(want))
		}
		for i := range want {
			if flat[i] != want[i] {
				return fmt.Errorf("rank %d: flat[%d] = %d, want %d", c.Rank(), i, flat[i], want[i])
			}
		}
		// Mutating the send buffer must not change the gathered result.
		for i := range data {
			data[i] = -1
		}
		for i := range want {
			if flat[i] != want[i] {
				return fmt.Errorf("rank %d: result aliases send buffer at %d", c.Rank(), i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		if m := w.RankMeter(r); m.Msgs != 2*(p-1) {
			t.Errorf("rank %d msgs = %d, want %d", r, m.Msgs, 2*(p-1))
		}
	}
}

// TestAlltoallvFlatMatchesCopy: flat concatenation in source order, same
// metering as the copying API, and no part (the self part included, which
// the copying Alltoallv aliases) is aliased by the result.
func TestAlltoallvFlatMatchesCopy(t *testing.T) {
	const p = 3
	_, err := Run(p, func(c *Comm) error {
		mkParts := func() [][]int64 {
			parts := make([][]int64, p)
			for d := 0; d < p; d++ {
				parts[d] = rankPayload(c.Rank()+d, (c.Rank()+d)%3)
			}
			return parts
		}
		before := c.MeterSnapshot()
		want := c.Alltoallv(mkParts())
		copyCost := c.MeterSnapshot().Sub(before)

		parts := mkParts()
		before = c.MeterSnapshot()
		flat := c.AlltoallvFlat(parts, nil)
		flatCost := c.MeterSnapshot().Sub(before)

		if copyCost != flatCost {
			return fmt.Errorf("rank %d: Flat metered %+v, copy metered %+v", c.Rank(), flatCost, copyCost)
		}
		var wantFlat []int64
		for _, part := range want {
			wantFlat = append(wantFlat, part...)
		}
		if len(flat) != len(wantFlat) {
			return fmt.Errorf("rank %d: len %d, want %d", c.Rank(), len(flat), len(wantFlat))
		}
		for i := range wantFlat {
			if flat[i] != wantFlat[i] {
				return fmt.Errorf("rank %d idx %d: %d, want %d", c.Rank(), i, flat[i], wantFlat[i])
			}
		}
		for d := range parts {
			for i := range parts[d] {
				parts[d][i] = -9
			}
		}
		for i := range wantFlat {
			if flat[i] != wantFlat[i] {
				return fmt.Errorf("rank %d: result aliases a send part at %d", c.Rank(), i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
