package mpi_test

import (
	"testing"

	"mcmdist/internal/mpi"
)

// recycleRounds is how many rounds recycleProgram runs: enough generations
// that every size class it uses cycles through the free list many times.
const recycleRounds = 40

// recycleProgram runs every mailbox collective for recycleRounds rounds
// with payload lengths that change from round to round, so on a backend
// with remote ranks the part buffers a retiring generation returns are
// taken again by later generations of other sizes and collectives. Split
// runs every round and WinCreate every fourth: both read their exchange
// through the same mailbox. Each round appends one digest per collective,
// so a mismatch with the oracle names the round.
func recycleProgram(size int, rows [][]int64) func(c *mpi.Comm) error {
	return func(c *mpi.Comm) error {
		me := int64(c.Rank())
		var out []int64
		for round := int64(0); round < recycleRounds; round++ {
			// payload is a run of n values tagged with sender, round and
			// destination, n cycling through 0..17 (classes 0 to 5).
			payload := func(src, dst int64) []int64 {
				n := ((round*5+src*3+dst)%18 + 18) % 18
				v := make([]int64, n)
				for i := range v {
					v[i] = src<<40 | round<<20 | dst<<10 | int64(i)
				}
				return v
			}
			parts := func() [][]int64 {
				ps := make([][]int64, size)
				for d := range ps {
					ps[d] = payload(me, int64(d))
				}
				return ps
			}
			digest := func(vs ...[]int64) int64 {
				h := int64(1469598103934665603)
				for _, v := range vs {
					h = h*1099511628211 + int64(len(v))
					for _, x := range v {
						h = h*1099511628211 + x
					}
				}
				return h
			}

			out = append(out, digest(c.Allgatherv(payload(me, -1))...))
			out = append(out, digest(c.Alltoallv(parts())...))
			out = append(out, digest(c.AllgathervInto(payload(me, -2), nil)))
			out = append(out, digest(c.AlltoallvFlat(parts(), nil)))

			// Progressive variants: arrival order varies, so fold each
			// source's digest commutatively.
			var mix int64
			ag := c.IAllgathervParts(payload(me, -3))
			for {
				src, p, ok := ag.Next()
				if !ok {
					break
				}
				mix += int64(src+1) * digest(p)
			}
			ag.Wait()
			at := c.IAlltoallvParts(parts())
			for {
				src, p, ok := at.Next()
				if !ok {
					break
				}
				mix += int64(src+7) * digest(p)
			}
			at.Wait()
			out = append(out, mix)

			root := int(round) % size
			out = append(out, digest(c.Gatherv(root, payload(me, -4))...))
			var scat [][]int64
			if c.Rank() == root {
				scat = parts()
			}
			out = append(out, digest(c.Scatterv(root, scat)))
			out = append(out, c.Allreduce(mpi.OpSum, me*round+1))

			sub := c.Split(int(me+round)%2, int(-me))
			out = append(out, int64(sub.Rank()), int64(sub.Size()))
			out = append(out, digest(sub.Allgatherv(payload(me, -5))...))

			if round%4 == 0 {
				local := payload(me, -6)
				win := mpi.WinCreate(c, local)
				right := (c.Rank() + 1) % size
				if n := len(payload(int64(right), -6)); n > 0 {
					out = append(out, win.Get(right, 0, n)...)
				}
				win.Fence()
			}
		}
		rows[c.WorldRank()] = out
		return nil
	}
}

// TestConformanceRecycling pins the payload-lifetime rule: over many
// generations whose remote parts go back to each world's free list and are
// decoded into again, every collective's result and every meter stays
// identical to the in-process oracle. Under the race detector it also
// catches a reader that touches a part after its generation retired.
func TestConformanceRecycling(t *testing.T) { conformanceCase(t, recycleProgram) }
