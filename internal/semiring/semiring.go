// Package semiring defines the VERTEX data structure and the BFS semirings
// of the paper (Section III-B). The MS-BFS frontier stores a (parent, root)
// pair per vertex; SpMV "multiplication" is select2nd — the discovered row
// vertex adopts the frontier column as parent and inherits its root — and
// "addition" picks one winner among competing discoveries: the minimum
// parent, a pseudo-random root, or a pseudo-random parent.
package semiring

import (
	"fmt"

	"mcmdist/internal/enum"
)

// None marks an unmatched / unvisited / missing value in all vectors, the
// paper's "-1".
const None int64 = -1

// Vertex is the paper's VERTEX data structure: the (parent, root) pair
// carried by each frontier entry. Roots are inherited from parents along
// alternating trees; parents are rewritten at every BFS level.
type Vertex struct {
	Parent int64
	Root   int64
}

// Self returns the Vertex (v, v), used when a phase starts and each
// unmatched column is its own parent and root.
func Self(v int64) Vertex { return Vertex{Parent: v, Root: v} }

// String formats the vertex like the paper's figures: "(parent, root)".
func (v Vertex) String() string { return fmt.Sprintf("(%d, %d)", v.Parent, v.Root) }

// AddOp selects the semiring "addition": which of two competing (parent,
// root) candidates survives when several frontier columns discover the same
// row vertex.
type AddOp int

const (
	// MinParent keeps the candidate with the smaller parent index, the
	// (select2nd, minParent) semiring used in the paper's running example.
	MinParent AddOp = iota
	// RandRoot keeps a pseudo-random candidate keyed by root, the
	// (select2nd, randRoot) semiring; the paper recommends it to balance
	// alternating-tree sizes.
	RandRoot
	// RandParent keeps a pseudo-random candidate keyed by parent.
	RandParent
	// MinRoot keeps the candidate with the smaller root. The distributed
	// dynamic-mindegree initializer uses it with degrees encoded in the
	// root field, so each row picks its minimum-degree neighbor column.
	MinRoot
)

var addOpNames = []string{MinParent: "minparent", RandRoot: "randroot", RandParent: "randparent", MinRoot: "minroot"}

// String names the operation with its flag spelling.
func (op AddOp) String() string { return enum.Name(addOpNames, "AddOp", op) }

// MarshalText spells the operation for flags and JSON.
func (op AddOp) MarshalText() ([]byte, error) { return enum.Marshal(addOpNames, "semiring", op) }

// UnmarshalText parses a flag or JSON spelling.
func (op *AddOp) UnmarshalText(text []byte) error {
	return enum.Unmarshal(addOpNames, "semiring", text, op)
}

// mix is a splitmix64-style finalizer: a deterministic hash giving the
// pseudo-random total order used by RandRoot and RandParent. Determinism
// matters: every rank must resolve a tie identically.
func mix(x int64) uint64 {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Combine returns the surviving candidate of a and b. It is associative and
// commutative for every AddOp, which SpMV's fold phase relies on.
func (op AddOp) Combine(a, b Vertex) Vertex {
	switch op {
	case MinParent:
		if b.Parent < a.Parent {
			return b
		}
		return a
	case RandRoot:
		ha, hb := mix(a.Root), mix(b.Root)
		if hb < ha || (hb == ha && b.Parent < a.Parent) {
			return b
		}
		return a
	case RandParent:
		ha, hb := mix(a.Parent), mix(b.Parent)
		if hb < ha || (hb == ha && b.Root < a.Root) {
			return b
		}
		return a
	case MinRoot:
		if b.Root < a.Root || (b.Root == a.Root && b.Parent < a.Parent) {
			return b
		}
		return a
	default:
		panic(fmt.Sprintf("semiring: unknown AddOp %d", int(op)))
	}
}

// Multiply is the semiring "multiplication" select2nd specialized for BFS
// frontier expansion: the product of matrix entry A(i, j) with frontier
// value x(j) is a Vertex whose parent is the frontier column j and whose
// root is inherited from x(j).
func Multiply(j int64, x Vertex) Vertex { return Vertex{Parent: j, Root: x.Root} }
