package mpi

import (
	"fmt"
	"sync"
	"testing"
)

// driveCollectives issues one of every collective family. With split set it
// routes everything expressible through the request layer (including the
// progressive Parts variants, one of them waited after a single Next);
// otherwise it uses the blocking forms with the same payloads. The two
// schedules must leave identical meters.
func driveCollectives(c *Comm, split bool) {
	p := c.Size()
	data := make([]int64, 8+c.Rank())
	for i := range data {
		data[i] = int64(c.Rank()*100 + i)
	}
	parts := make([][]int64, p)
	for d := range parts {
		parts[d] = []int64{int64(c.Rank()), int64(d), 7}
	}
	if split {
		c.IAllgatherv(data).Wait()
		c.IAlltoallv(parts).Wait()
		c.IAllreduce(OpSum, int64(c.Rank())).Wait()
		rq := c.IAllgathervParts(data)
		for {
			if _, _, ok := rq.Next(); !ok {
				break
			}
		}
		rq.Wait()
		rq = c.IAlltoallvParts(parts)
		rq.Drain(nil)
		rq.Wait()
		// One source delivered, the rest left to Wait: undelivered
		// sources are metered like delivered ones.
		rq = c.IAllgathervParts(data)
		rq.Next()
		rq.Wait()
	} else {
		c.Allgatherv(data)
		c.Alltoallv(parts)
		c.Allreduce(OpSum, int64(c.Rank()))
		c.Allgatherv(data) // blocking counterpart of the Parts allgather
		c.Alltoallv(parts) // blocking counterpart of the Parts alltoall
		c.Allgatherv(data) // blocking counterpart of the partly read allgather
	}
	c.AllreduceN(OpMax, []int64{int64(c.Rank()), 3})
	c.Barrier()
	c.Gatherv(0, data)
	var sc [][]int64
	if c.Rank() == 0 {
		sc = make([][]int64, p)
		for d := range sc {
			sc[d] = []int64{int64(d), 11}
		}
	}
	c.Scatterv(0, sc)
	c.AddWork(10)
}

// TestRequestMeterConservation: the request layer counts every transfer
// exactly once. Per rank the per-kind meters sum to the rank total, the
// rank totals sum to TotalMeter, and a split-phase schedule's meters are
// identical to the blocking schedule's, rank by rank and kind by kind.
func TestRequestMeterConservation(t *testing.T) {
	const p = 4
	worlds := make(map[bool]*World)
	for _, split := range []bool{false, true} {
		w, err := Run(p, func(c *Comm) error {
			driveCollectives(c, split)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		worlds[split] = w
	}
	for _, split := range []bool{false, true} {
		w := worlds[split]
		var sum Meter
		for r := 0; r < p; r++ {
			total := w.RankMeter(r)
			sum = sum.Add(total)
			var kMsgs, kWords int64
			for k := CommKind(0); k < numKinds; k++ {
				km := w.RankKindMeter(r, k)
				kMsgs += km.Msgs
				kWords += km.Words
			}
			if kMsgs != total.Msgs || kWords != total.Words {
				t.Fatalf("split=%v rank %d: kinds sum (%d,%d) != rank total (%d,%d)",
					split, r, kMsgs, kWords, total.Msgs, total.Words)
			}
		}
		if got := w.TotalMeter(); got != sum {
			t.Fatalf("split=%v: rank sum %+v != TotalMeter %+v", split, sum, got)
		}
	}
	for r := 0; r < p; r++ {
		if b, s := worlds[false].RankMeter(r), worlds[true].RankMeter(r); b != s {
			t.Fatalf("rank %d: blocking meter %+v != split-phase meter %+v", r, b, s)
		}
		for k := CommKind(0); k < numKinds; k++ {
			b := worlds[false].RankKindMeter(r, k)
			s := worlds[true].RankKindMeter(r, k)
			if b != s {
				t.Fatalf("rank %d kind %v: blocking %+v != split-phase %+v", r, k, b, s)
			}
		}
	}
}

// TestCompressedMeterConservation: with wire compression on, WordsEnc obeys
// the same conservation laws as Words — per-kind sums equal the rank total,
// rank totals sum to TotalMeter, blocking and split-phase schedules agree —
// and is strictly positive for every kind that moved payload. Turning
// compression on must not perturb the raw ledger: Msgs/Words/Work are
// bit-identical to the uncompressed run, where WordsEnc is exactly zero.
func TestCompressedMeterConservation(t *testing.T) {
	const p = 4
	type key struct{ split, compress bool }
	worlds := make(map[key]*World)
	for _, split := range []bool{false, true} {
		for _, compress := range []bool{false, true} {
			w, err := RunTransport(RunConfig{Compress: compress}, NewInproc(p), func(c *Comm) error {
				driveCollectives(c, split)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			worlds[key{split, compress}] = w
		}
	}
	for _, split := range []bool{false, true} {
		w := worlds[key{split, true}]
		var sum Meter
		for r := 0; r < p; r++ {
			total := w.RankMeter(r)
			sum = sum.Add(total)
			var kEnc int64
			for k := CommKind(0); k < numKinds; k++ {
				km := w.RankKindMeter(r, k)
				kEnc += km.WordsEnc
				if km.Words > 0 && km.WordsEnc <= 0 {
					t.Fatalf("split=%v rank %d kind %v: Words %d but WordsEnc %d",
						split, r, k, km.Words, km.WordsEnc)
				}
			}
			if kEnc != total.WordsEnc {
				t.Fatalf("split=%v rank %d: kinds WordsEnc sum %d != rank total %d",
					split, r, kEnc, total.WordsEnc)
			}
		}
		if got := w.TotalMeter(); got != sum {
			t.Fatalf("split=%v: rank sum %+v != TotalMeter %+v", split, sum, got)
		}
		// Blocking and split-phase schedules leave identical encoded ledgers.
		b, s := worlds[key{false, true}], worlds[key{true, true}]
		for r := 0; r < p; r++ {
			if bm, sm := b.RankMeter(r), s.RankMeter(r); bm != sm {
				t.Fatalf("rank %d: blocking %+v != split-phase %+v", r, bm, sm)
			}
		}
		// Compression only adds the WordsEnc column: the raw ledger matches
		// the uncompressed run, which itself carries WordsEnc == 0.
		off := worlds[key{split, false}]
		for r := 0; r < p; r++ {
			om, cm := off.RankMeter(r), w.RankMeter(r)
			if om.WordsEnc != 0 {
				t.Fatalf("split=%v rank %d: WordsEnc %d with compression off", split, r, om.WordsEnc)
			}
			om.WordsEnc = cm.WordsEnc
			if om != cm {
				t.Fatalf("split=%v rank %d: raw ledger changed under compression: off %+v on %+v",
					split, r, off.RankMeter(r), cm)
			}
		}
	}
}

// TestRequestWaitConcurrent hammers shared requests from multiple
// goroutines per rank — two helpers calling Wait alongside the rank
// goroutine's own Wait — across many rounds. Run under -race this is the
// thread-safety stress for the split-phase request state machine.
func TestRequestWaitConcurrent(t *testing.T) {
	const p = 4
	const rounds = 25
	_, err := Run(p, func(c *Comm) error {
		payload := []int64{int64(c.Rank()), int64(c.Rank() * 3)}
		for i := 0; i < rounds; i++ {
			vr := c.IAllreduce(OpSum, int64(c.Rank()+i))
			gr := c.IAllgatherv(payload)
			want := int64(p*(p-1)/2 + p*i)
			errs := make(chan error, 2)
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				if got := vr.Wait(); got != want {
					errs <- fmt.Errorf("allreduce got %d want %d", got, want)
				}
			}()
			go func() {
				defer wg.Done()
				out := gr.Wait()
				if len(out) != p || out[c.Rank()][1] != payload[1] {
					errs <- fmt.Errorf("allgather round %d: bad result %v", i, out)
				}
			}()
			if got := vr.Wait(); got != want {
				return fmt.Errorf("main allreduce got %d want %d", got, want)
			}
			out := gr.Wait()
			if len(out) != p {
				return fmt.Errorf("main allgather got %d parts", len(out))
			}
			wg.Wait()
			select {
			case e := <-errs:
				return e
			default:
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
