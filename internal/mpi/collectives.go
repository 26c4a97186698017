package mpi

import (
	"fmt"
	"slices"
)

// Barrier blocks until every rank of the communicator has entered it.
func (c *Comm) Barrier() {
	c.start("barrier", make([][]int64, c.Size()), false, tally{}, nil).Wait()
}

// fill returns a row that addresses v to every member: the send row of the
// collectives that post one payload to all (the allgathers, the
// allreduces, Split).
func (c *Comm) fill(v []int64) [][]int64 {
	row := make([][]int64, c.Size())
	for d := range row {
		row[d] = v
	}
	return row
}

// Allgatherv gathers each rank's contribution on every rank. The result has
// one slice per rank, in rank order; slices received from other ranks are
// copies. This is the "expand" primitive of the 2D SpMV and the
// communication step of PRUNE; the paper costs it with the ring algorithm:
// p-1 messages and the received volume.
func (c *Comm) Allgatherv(data []int64) [][]int64 {
	return c.IAllgatherv(data).Wait()
}

// Alltoallv sends parts[d] to rank d and returns the slices received, one
// per source rank. Received slices alias the sender's slice only through an
// explicit copy. This is the personalized all-to-all used by the "fold"
// phase of SpMV and by INVERT.
func (c *Comm) Alltoallv(parts [][]int64) [][]int64 {
	return c.IAlltoallv(parts).Wait()
}

// AllgathervInto is the buffer-lending Allgatherv for hot paths: every
// rank's contribution is appended into buf in rank order (the flat
// concatenation the expand and PRUNE consumers actually want) and the grown
// buffer is returned. buf may be nil or a recycled arena buffer; the result
// never aliases data or another rank's memory, so the caller may return it
// to an arena once done. Metering is identical to Allgatherv: p-1 messages
// and the words received from other ranks.
func (c *Comm) AllgathervInto(data []int64, buf []int64) []int64 {
	return c.IAllgathervInto(data, buf).Wait()
}

// AlltoallvFlat is the buffer-lending Alltoallv: the received parts,
// including the self part, are appended into buf in source-rank order and
// the grown buffer returned, so nothing in the result aliases parts and the
// caller may recycle both parts and buf afterwards. It serves consumers
// (INVERT, redistribution) that scatter-reduce the union and never look at
// who sent what. Metering is identical to Alltoallv.
func (c *Comm) AlltoallvFlat(parts [][]int64, buf []int64) []int64 {
	return c.IAlltoallvFlat(parts, buf).Wait()
}

// Gatherv collects every rank's contribution on root, in rank order. Non-root
// ranks receive nil.
func (c *Comm) Gatherv(root int, data []int64) [][]int64 {
	row := make([][]int64, c.Size())
	row[root] = data
	t := tally{kind: KindGather, msgs: int32(c.Size() - 1), recv: true}
	if c.member != root {
		t = tally{kind: KindGather, msgs: 1, words: int64(len(data)), wordsEnc: c.encWords(data)}
	}
	var out [][]int64
	c.start("gatherv", row, true, t, func(got [][]int64) {
		if c.member == root {
			out = c.copied(got)
		}
	}).Wait()
	return out
}

// Scatterv distributes parts[d] from root to rank d and returns each rank's
// slice. Non-root callers pass nil.
func (c *Comm) Scatterv(root int, parts [][]int64) []int64 {
	row := parts
	t := tally{kind: KindScatter, msgs: 1, recv: true}
	if c.member == root {
		t = c.scattered("Scatterv", KindScatter, parts)
	} else {
		row = make([][]int64, c.Size())
	}
	var out []int64
	c.start("scatterv", row, true, t, func(got [][]int64) {
		out = got[root]
		if c.member != root {
			out = append([]int64(nil), out...)
		}
	}).Wait()
	return out
}

// OpCode names a reduction operator on the wire, so FetchAndOp can be
// executed by the process owning the target window.
type OpCode uint8

// The coded reduction operators.
const (
	// OpCodeSum is addition. Code 0 is reserved: it marked a retired
	// caller-supplied operator with no wire form.
	OpCodeSum OpCode = iota + 1
	// OpCodeMax is the maximum.
	OpCodeMax
	// OpCodeMin is the minimum.
	OpCodeMin
	// OpCodeLor is logical or (nonzero → 1).
	OpCodeLor
	// OpCodeReplace ignores the prior value (MPI_REPLACE).
	OpCodeReplace
)

// ReduceOp is an associative, commutative reduction operator. Each of the
// package's operators carries an OpCode so one-sided FetchAndOp calls can
// cross a process boundary.
type ReduceOp struct {
	// Code is the operator's wire name.
	Code OpCode
	fn   func(a, b int64) int64
}

// Apply evaluates the operator.
func (op ReduceOp) Apply(a, b int64) int64 { return op.fn(a, b) }

// Standard reduction operators.
var (
	OpSum = ReduceOp{Code: OpCodeSum, fn: func(a, b int64) int64 { return a + b }}
	OpMax = ReduceOp{Code: OpCodeMax, fn: func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}}
	OpMin = ReduceOp{Code: OpCodeMin, fn: func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}}
	OpLor = ReduceOp{Code: OpCodeLor, fn: func(a, b int64) int64 {
		if a != 0 || b != 0 {
			return 1
		}
		return 0
	}}
)

// opByCode resolves a wire code back to its operator.
func opByCode(code OpCode) (ReduceOp, bool) {
	switch code {
	case OpCodeSum:
		return OpSum, true
	case OpCodeMax:
		return OpMax, true
	case OpCodeMin:
		return OpMin, true
	case OpCodeLor:
		return OpLor, true
	case OpCodeReplace:
		return OpReplace, true
	default:
		return ReduceOp{}, false
	}
}

// Allreduce reduces val across all ranks with op and returns the result on
// every rank. Costed as a binomial reduce-broadcast tree.
func (c *Comm) Allreduce(op ReduceOp, val int64) int64 {
	return c.IAllreduce(op, val).Wait()
}

// AllreduceN reduces k = len(vals) words elementwise across all ranks with
// op and returns the k results on every rank: one collective, one mailbox
// generation and one shared row, so a level that needs several global
// counts pays one reduction's latency, not k. Costed as the scalar form's
// tree carrying k words per message: 2·ceil(log2 p) messages and
// 2·ceil(log2 p)·k words (raw size under compression). Every rank must pass
// the same k.
func (c *Comm) AllreduceN(op ReduceOp, vals []int64) []int64 {
	out := make([]int64, len(vals))
	c.start("allreduce", c.fill(slices.Clone(vals)), false, c.reduced(len(vals)), func(got [][]int64) {
		for s, in := range got {
			if len(in) != len(out) {
				panic(fmt.Sprintf("mpi: AllreduceN of %d words met %d from member %d", len(out), len(in), s))
			}
		}
		copy(out, got[0])
		for _, in := range got[1:] {
			for i, v := range in {
				out[i] = op.Apply(out[i], v)
			}
		}
	}).Wait()
	return out
}

// reduced is the tally of an allreduce of k words: a binomial reduce tree
// then a broadcast tree, one message of k words per level, sent unencoded.
func (c *Comm) reduced(k int) tally {
	depth := logTreeDepth(c.Size())
	words := 2 * depth * int64(k)
	return tally{kind: KindReduce, msgs: int32(2 * depth), words: words, wordsEnc: c.rawEnc(words)}
}

// Split partitions the communicator: ranks passing the same color form a new
// communicator, ordered by (key, rank). Every rank must call Split; a
// negative color yields a nil communicator (MPI_COMM_NULL).
func (c *Comm) Split(color, key int) *Comm {
	type memberInfo struct{ key, member int }
	var members []memberInfo
	row := c.fill([]int64{int64(color), int64(key)})
	c.start("split", row, false, tally{}, func(got [][]int64) {
		for s, ck := range got {
			if int(ck[0]) == color {
				members = append(members, memberInfo{key: int(ck[1]), member: s})
			}
		}
	}).Wait()
	if color < 0 {
		return nil
	}
	// Sort by (key, member); insertion sort keeps this dependency-free.
	for i := 1; i < len(members); i++ {
		for j := i; j > 0 && (members[j].key < members[j-1].key ||
			(members[j].key == members[j-1].key && members[j].member < members[j-1].member)); j-- {
			members[j], members[j-1] = members[j-1], members[j]
		}
	}
	worldRanks := make([]int, len(members))
	myIndex := -1
	for i, m := range members {
		worldRanks[i] = c.st.ranks[m.member]
		if m.member == c.member {
			myIndex = i
		}
	}
	// All members derive the same id, so they share one commState via the
	// world registry (remote traffic may even have materialized it first).
	// The parent generation makes repeated Splits distinct. Abort sets the
	// world flag before snapshotting w.comms under w.mu, so either the
	// snapshot saw the insert (Abort marks st) or commStateFor's load sees
	// the flag — a freshly split comm can never miss an abort.
	id := fmt.Sprintf("%s/split@%d/c%d", c.st.id, c.nextGen, color)
	st := c.st.world.commStateFor(id, worldRanks)
	return &Comm{st: st, member: myIndex, worldRank: c.worldRank}
}
