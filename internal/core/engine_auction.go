package core

import (
	"mcmdist/internal/dvec"
	"mcmdist/internal/mpi"
	"mcmdist/internal/obs"
	"mcmdist/internal/semiring"
)

// startAuction begins one solve of the distributed auction engine for
// maximum cardinality matching (the Jacobi-rounds formulation of Liu, Ke and
// Khuller's distributed auction, specialized to unit weights with ε = 1).
// Columns are the bidders, rows the objects; every row carries an integer
// price in ε-units. Each round, every active column — unmatched and not
// priced out — looks up its cheapest and second-cheapest neighbor rows, bids
// second-cheapest+1 on the cheapest, and each row accepts its highest bid,
// evicting the previous mate. A column whose cheapest neighbor already costs
// at least priceBound = min(n1,n2)+1 can never be matched (a price that high
// certifies there is no augmenting path to a free row) and retires
// permanently, which is the termination and maximality argument: prices
// rise by at least 1 per accepted bid and are capped, so eventually every
// column is matched or priced out, and ε-complementary slackness makes the
// surviving matching maximum.
//
// Distribution follows the same 2D decomposition as the BFS engines: the
// price vector is row-aligned and the per-round price slab is assembled
// with an allgather along the grid row (the expand of a transposed SpMV);
// active-column flags are allgathered along the grid column; each rank then
// scans its own block's columns serially (the scan is deterministic and
// thread-count independent), folds per-block top-2 partials to the column
// owner along the grid column, and bids and mate updates are routed with
// world-level personalized all-to-alls. Every collective is issued
// unconditionally each round, so all ranks stay in lockstep on both
// transports, under fault injection, and with communication overlap on.
//
// The warm start is free: any valid matching (the maximal initializer's or a
// restored checkpoint's) satisfies ε-complementary slackness at all-zero
// prices, so matched columns simply never enter the bidding.
func startAuction(s *Solver, mater, matec *dvec.Dense) engineRun {
	return &auctionRun{
		s: s, mater: mater, matec: matec,
		matched:    s.Stats.InitCardinality,
		price:      dvec.HoldDense(s.RowL, 0),
		pricedOut:  dvec.HoldDense(s.ColL, 0),
		priceBound: int64(min(s.N1, s.N2) + 1),
		folds:      make([]semiring.Best2, s.ColL.MyRange().Len()),
		wins:       make([]semiring.WVertex, s.RowL.MyRange().Len()),
	}
}

// auctionRun is one in-progress auction solve on one rank.
type auctionRun struct {
	s            *Solver
	mater, matec *dvec.Dense
	price        *dvec.Dense // row prices in ε-units, row-aligned
	pricedOut    *dvec.Dense // 1 = column proven unmatchable, col-aligned
	priceBound   int64       // min(n1,n2)+1: cheapest-neighbor price that retires a bidder
	round        int
	matched      int // matching size after the last round
	// Per-round workspaces, reset by every round: the folded top-2 per
	// owned column and the winning bid per owned row.
	folds []semiring.Best2
	wins  []semiring.WVertex
}

// Iterate runs one synchronous bidding round and reports done when no
// active column remains. The mate vectors encode a valid matching at every
// return (each accepted bid matches one previously-unmatched column and
// unlinks the evicted mate atomically from the matching's point of view),
// so every round boundary is a checkpoint point.
func (r *auctionRun) Iterate() (bool, error) {
	s := r.s
	g := s.G
	ctx := g.RT
	trc := ctx.Tracer()

	// Termination test: count active columns (unmatched, not priced out).
	var active int
	s.tr.track(OpOther, func() {
		var local int64
		for i, v := range r.matec.Local {
			if v == semiring.None && r.pricedOut.Local[i] == 0 {
				local++
			}
		}
		g.World.AddWork(len(r.matec.Local))
		active = int(g.World.Allreduce(mpi.OpSum, local))
	})
	if active == 0 {
		return true, nil
	}

	r.round++
	round := r.round
	phase0 := trc.Begin()
	s.Stats.Iterations++
	iter0 := s.obsIterBegin()

	// Expand: assemble the price slab for my block's rows (allgather along
	// the grid row, concatenation in row-comm rank order is the contiguous
	// A.Rows range) and the active flags for my block's columns (allgather
	// along the grid column, likewise contiguous over A.Cols).
	var prices, flags []int64
	s.tr.track(OpSpMV, func() {
		prices = g.Row.AllgathervInto(r.price.Local, ctx.GetInts(s.A.Rows.Len()))
		af := ctx.GetInts(len(r.matec.Local))
		for i, v := range r.matec.Local {
			a := int64(0)
			if v == semiring.None && r.pricedOut.Local[i] == 0 {
				a = 1
			}
			af = append(af, a)
		}
		flags = g.Col.AllgathervInto(af, ctx.GetInts(s.A.Cols.Len()))
		ctx.PutInts(af)
	})

	// Local scan: for every active column with nonzeros in my block, fold
	// the (price, row) candidates to a top-2 under MinVal and send the
	// partial to the column's owner along the grid column. Serial on
	// purpose: the fold is associative, so per-block partials merge exactly,
	// and the scan order never depends on the thread count.
	partials := ctx.GetParts(g.Col.Size())
	s.tr.track(OpSpMV, func() {
		d := s.A.M
		rowsLo, colsLo := s.A.Rows.Lo, s.A.Cols.Lo
		work := 0
		for k, jl := range d.JC {
			if flags[jl] == 0 {
				continue
			}
			best := semiring.NewBest2(semiring.MinVal)
			rows := d.IR[d.CP[k]:d.CP[k+1]]
			for _, rl := range rows {
				best.Add(semiring.WVertex{Val: prices[rl], Id: int64(rowsLo + rl)})
			}
			work += len(rows) + 1
			gj := colsLo + jl
			oi, _ := s.ColL.OwnerCoords(gj)
			partials[oi] = append(partials[oi],
				int64(gj), best.First.Val, best.First.Id, best.Second.Val, best.Second.Id)
		}
		g.World.AddWork(work)
	})
	ctx.PutInts(prices)
	ctx.PutInts(flags)

	// Fold + bid: the column owner merges the per-block partials, retires
	// columns whose cheapest neighbor meets the price bound (or that have no
	// neighbors at all), and bids second-cheapest+1 on the cheapest row.
	// Ties in the folds break toward the smaller id on every rank, so the
	// outcome is SPMD-deterministic.
	var foldIn []int64
	s.tr.track(OpSelect, func() {
		foldIn = g.Col.AlltoallvFlat(partials, ctx.GetInts(0))
	})
	ctx.PutParts(partials)

	myCols := s.ColL.MyRange()
	bids := ctx.GetParts(g.World.Size())
	s.tr.track(OpSelect, func() {
		folds := r.folds
		for i := range folds {
			folds[i] = semiring.NewBest2(semiring.MinVal)
		}
		for off := 0; off < len(foldIn); off += 5 {
			jl := int(foldIn[off]) - myCols.Lo
			folds[jl].Merge(semiring.Best2{
				Op:     semiring.MinVal,
				First:  semiring.WVertex{Val: foldIn[off+1], Id: foldIn[off+2]},
				Second: semiring.WVertex{Val: foldIn[off+3], Id: foldIn[off+4]},
			})
		}
		for jl := range folds {
			if r.matec.Local[jl] != semiring.None || r.pricedOut.Local[jl] != 0 {
				continue
			}
			f := folds[jl]
			if f.First.Id == semiring.None || f.First.Val >= r.priceBound {
				r.pricedOut.Local[jl] = 1
				continue
			}
			secondP := r.priceBound
			if f.Second.Id != semiring.None && f.Second.Val < secondP {
				secondP = f.Second.Val
			}
			rank, _ := s.RowL.Owner(int(f.First.Id))
			bids[rank] = append(bids[rank], f.First.Id, secondP+1, int64(myCols.Lo+jl))
		}
		g.World.AddWork(len(foldIn)/5 + myCols.Len())
	})

	// Accept: each row owner keeps the highest bid per row (ties to the
	// smaller column id), raises the price to the accepted bid, rebinds the
	// row, and emits mate updates — the winner's match and the evicted
	// previous mate's unlink — to the column owners.
	var bidIn []int64
	s.tr.track(OpAugment, func() {
		bidIn = g.World.AlltoallvFlat(bids, ctx.GetInts(0))
	})
	ctx.PutParts(bids)

	// fresh counts the accepted bids that matched a free row: an eviction
	// moves a row to another column and leaves the cardinality unchanged.
	fresh := int64(0)
	updates := ctx.GetParts(g.World.Size())
	s.tr.track(OpAugment, func() {
		myRows := s.RowL.MyRange()
		wins := r.wins
		for i := range wins {
			wins[i] = semiring.WNone
		}
		for off := 0; off < len(bidIn); off += 3 {
			rl := int(bidIn[off]) - myRows.Lo
			wins[rl] = semiring.MaxVal.Combine(wins[rl],
				semiring.WVertex{Val: bidIn[off+1], Id: bidIn[off+2]})
		}
		for rl, w := range wins {
			if w.Id == semiring.None {
				continue
			}
			r.price.Local[rl] = w.Val
			prev := r.mater.Local[rl]
			if prev == semiring.None {
				fresh++
			}
			r.mater.Local[rl] = w.Id
			winRank, _ := s.ColL.Owner(int(w.Id))
			updates[winRank] = append(updates[winRank], w.Id, int64(myRows.Lo+rl))
			if prev != semiring.None {
				evRank, _ := s.ColL.Owner(int(prev))
				updates[evRank] = append(updates[evRank], prev, semiring.None)
			}
		}
		g.World.AddWork(len(wins) + len(bidIn)/3)
	})
	ctx.PutInts(bidIn)
	ctx.PutInts(foldIn)

	var newMatches int
	s.tr.track(OpAugment, func() {
		upd := g.World.AlltoallvFlat(updates, ctx.GetInts(0))
		for off := 0; off < len(upd); off += 2 {
			r.matec.Local[int(upd[off])-myCols.Lo] = upd[off+1]
		}
		g.World.AddWork(len(upd) / 2)
		ctx.PutInts(upd)
		newMatches = int(g.World.Allreduce(mpi.OpSum, fresh))
	})
	ctx.PutParts(updates)

	s.Stats.Phases++
	r.matched += newMatches
	s.obsIterEnd(iter0, round, active, newMatches, r.matched, false)
	s.maybeCheckpoint(round, r.mater, r.matec)
	trc.End(obs.KindPhase, "round", phase0, int64(round))
	return false, nil
}
