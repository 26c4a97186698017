package mpi

import "fmt"

// Barrier blocks until every rank of the communicator has entered it.
func (c *Comm) Barrier() {
	c.start("barrier", make([]any, c.Size()), false, nil).Wait()
}

// Bcast distributes root's data to every rank and returns it. Non-root
// callers pass nil. The result is a fresh copy on every rank except root;
// root gets its own slice back uncopied, so a root that mutates the result
// mutates data (matching MPI_Bcast, where root's buffer is both input and
// output). An empty or nil broadcast moves no bytes along the tree, so it
// meters nothing — ranks are not charged depth messages for a zero-length
// payload.
func (c *Comm) Bcast(root int, data []int64) []int64 {
	return c.IBcast(root, data).Wait()
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

// AlltoallvInto is the buffer-lending Alltoallv: everything received is
// stored contiguously in buf (grown as needed and returned second), and the
// first result holds one subslice of that buffer per source rank, in source
// order. Unlike Alltoallv, the self part is copied too — no subslice aliases
// parts — so the caller may recycle both parts and buf afterwards. buf is
// presized to the full receive volume before any subslice is taken, which
// keeps every subslice valid. Metering is identical to Alltoallv: p-1
// messages and the words sent to other ranks.
func (c *Comm) AlltoallvInto(parts [][]int64, buf []int64) ([][]int64, []int64) {
	return c.IAlltoallvInto(parts, buf).Wait()
}

// AlltoallvFlat is AlltoallvInto without the per-source boundaries: the
// received parts are appended into buf in source-rank order and the grown
// buffer returned. It serves consumers (INVERT, redistribution) that
// scatter-reduce the union and never look at who sent what. Metering is
// identical to Alltoallv.
func (c *Comm) AlltoallvFlat(parts [][]int64, buf []int64) []int64 {
	return c.IAlltoallvFlat(parts, buf).Wait()
}

// Gatherv collects every rank's contribution on root, in rank order. Non-root
// ranks receive nil.
func (c *Comm) Gatherv(root int, data []int64) [][]int64 {
	size := c.Size()
	parts := make([]any, size)
	parts[root] = data
	var out [][]int64
	c.start("gatherv", parts, true, func(got []any) {
		if c.member != root {
			c.addComm(KindGather, 1, int64(len(data)), c.encWords(data))
			return
		}
		out = make([][]int64, size)
		var words, wordsEnc int64
		for s := 0; s < size; s++ {
			in := asInts(got[s])
			if s == root {
				out[s] = data
				continue
			}
			words += int64(len(in))
			wordsEnc += c.encWords(in)
			out[s] = append([]int64(nil), in...)
		}
		c.addComm(KindGather, int64(size-1), words, wordsEnc)
	}).Wait()
	return out
}

// Scatterv distributes parts[d] from root to rank d and returns each rank's
// slice. Non-root callers pass nil.
func (c *Comm) Scatterv(root int, parts [][]int64) []int64 {
	size := c.Size()
	anyParts := make([]any, size)
	if c.member == root {
		if len(parts) != size {
			panic(fmt.Sprintf("mpi: Scatterv with %d parts on %d ranks", len(parts), size))
		}
		for d := 0; d < size; d++ {
			anyParts[d] = parts[d]
		}
	}
	var out []int64
	c.start("scatterv", anyParts, true, func(got []any) {
		in := asInts(got[root])
		if c.member == root {
			var words, wordsEnc int64
			for d := 0; d < size; d++ {
				if d != root {
					words += int64(len(parts[d]))
					wordsEnc += c.encWords(parts[d])
				}
			}
			c.addComm(KindScatter, int64(size-1), words, wordsEnc)
			out = in
			return
		}
		c.addComm(KindScatter, 1, int64(len(in)), c.encWords(in))
		out = append([]int64(nil), in...)
	}).Wait()
	return out
}

// OpCode names a reduction operator on the wire, so FetchAndOp can be
// executed by the process owning the target window. OpCodeCustom marks an
// operator built with CustomOp, which only works against local windows.
type OpCode uint8

// The coded reduction operators.
const (
	// OpCodeCustom is a caller-supplied operator with no wire form.
	OpCodeCustom OpCode = iota
	// OpCodeSum is addition.
	OpCodeSum
	// OpCodeMax is the maximum.
	OpCodeMax
	// OpCodeMin is the minimum.
	OpCodeMin
	// OpCodeLor is logical or (nonzero → 1).
	OpCodeLor
	// OpCodeReplace ignores the prior value (MPI_REPLACE).
	OpCodeReplace
)

// ReduceOp is an associative, commutative reduction operator. The package's
// named operators carry an OpCode so one-sided FetchAndOp calls can cross a
// process boundary; operators built with CustomOp are local-only there
// (Allreduce always evaluates locally, so any operator works in it on every
// backend).
type ReduceOp struct {
	// Code is the operator's wire name (OpCodeCustom for CustomOp).
	Code OpCode
	fn   func(a, b int64) int64
}

// Apply evaluates the operator.
func (op ReduceOp) Apply(a, b int64) int64 { return op.fn(a, b) }

// CustomOp wraps an arbitrary associative, commutative function as a
// ReduceOp. Usable in Allreduce on every backend; rejected by FetchAndOp on
// remote windows (the function cannot be shipped to the owning process).
func CustomOp(fn func(a, b int64) int64) ReduceOp {
	return ReduceOp{Code: OpCodeCustom, fn: fn}
}

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

// Split partitions the communicator: ranks passing the same color form a new
// communicator, ordered by (key, rank). Every rank must call Split; a
// negative color yields a nil communicator (MPI_COMM_NULL).
func (c *Comm) Split(color, key int) *Comm {
	size := c.Size()
	parts := make([]any, size)
	for d := 0; d < size; d++ {
		parts[d] = []int64{int64(color), int64(key)}
	}
	got := c.exchange(parts, "split")
	if color < 0 {
		return nil
	}
	type memberInfo struct{ key, member int }
	var members []memberInfo
	for s := 0; s < size; s++ {
		ck := asInts(got[s])
		if int(ck[0]) == color {
			members = append(members, memberInfo{key: int(ck[1]), member: s})
		}
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

func asInts(v any) []int64 {
	if v == nil {
		return nil
	}
	return v.([]int64)
}
