// Package relation implements the relational substrate of the paper:
// schemas, attribute sets, tuples, instances and V-instances (Section 2).
//
// A V-instance is an instance whose cells may hold variables in addition to
// constants. A variable v stands for "any fresh value from the attribute's
// domain that does not already occur in the instance", and two distinct
// variables can never be instantiated to equal values. V-instances let the
// repair algorithms express "set this cell to anything new" without
// committing to a concrete value.
//
// The package also provides the dictionary-encoding layer the hot paths of
// the system are built on (codes.go): per-attribute int32 code columns on
// Instance, an allocation-free code-indexed Partitioner for grouping tuples
// by projection equality, and per-instance KeyTables giving every row a
// dense id of its projection on an attribute set (keys.go). Consumers
// (conflict analysis, clean indexes, FD discovery, weightings) group by
// codes instead of building string keys.
package relation

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxAttrs is the maximum number of attributes a schema may have. Attribute
// sets are represented as 64-bit masks; the paper's widest experiment uses a
// 34-attribute relation, so 64 is comfortable headroom.
const MaxAttrs = 64

// AttrSet is a set of attribute positions represented as a bitmask.
// Attribute i of a schema corresponds to bit i.
type AttrSet uint64

// NewAttrSet returns the set containing exactly the given attribute indices.
func NewAttrSet(attrs ...int) AttrSet {
	var s AttrSet
	for _, a := range attrs {
		s = s.Add(a)
	}
	return s
}

// Add returns s with attribute a added.
func (s AttrSet) Add(a int) AttrSet {
	if a < 0 || a >= MaxAttrs {
		panic(fmt.Sprintf("relation: attribute index %d out of range [0,%d)", a, MaxAttrs))
	}
	return s | 1<<uint(a)
}

// Remove returns s with attribute a removed.
func (s AttrSet) Remove(a int) AttrSet {
	if a < 0 || a >= MaxAttrs {
		return s
	}
	return s &^ (1 << uint(a))
}

// Contains reports whether attribute a is in s.
func (s AttrSet) Contains(a int) bool {
	if a < 0 || a >= MaxAttrs {
		return false
	}
	return s&(1<<uint(a)) != 0
}

// Union returns s ∪ t.
func (s AttrSet) Union(t AttrSet) AttrSet { return s | t }

// Intersect returns s ∩ t.
func (s AttrSet) Intersect(t AttrSet) AttrSet { return s & t }

// Diff returns s \ t.
func (s AttrSet) Diff(t AttrSet) AttrSet { return s &^ t }

// SubsetOf reports whether s ⊆ t.
func (s AttrSet) SubsetOf(t AttrSet) bool { return s&^t == 0 }

// Intersects reports whether s ∩ t is non-empty.
func (s AttrSet) Intersects(t AttrSet) bool { return s&t != 0 }

// IsEmpty reports whether s contains no attributes.
func (s AttrSet) IsEmpty() bool { return s == 0 }

// Len returns the number of attributes in s.
func (s AttrSet) Len() int { return bits.OnesCount64(uint64(s)) }

// Max returns the largest attribute index in s, or -1 if s is empty.
func (s AttrSet) Max() int {
	if s == 0 {
		return -1
	}
	return 63 - bits.LeadingZeros64(uint64(s))
}

// Attrs returns the attribute indices in s in increasing order.
func (s AttrSet) Attrs() []int {
	out := make([]int, 0, s.Len())
	for t := s; t != 0; {
		a := bits.TrailingZeros64(uint64(t))
		out = append(out, a)
		t &^= 1 << uint(a)
	}
	return out
}

// ForEach calls f for each attribute in s in increasing order. Iteration
// stops early if f returns false.
func (s AttrSet) ForEach(f func(a int) bool) {
	for t := s; t != 0; {
		a := bits.TrailingZeros64(uint64(t))
		if !f(a) {
			return
		}
		t &^= 1 << uint(a)
	}
}

// String formats s using attribute indices, e.g. "{0,3,5}".
func (s AttrSet) String() string {
	parts := make([]string, 0, s.Len())
	for _, a := range s.Attrs() {
		parts = append(parts, fmt.Sprintf("%d", a))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Names formats s using the attribute names of the given schema, sorted by
// attribute position, e.g. "Surname,GivenName".
func (s AttrSet) Names(sc *Schema) string {
	parts := make([]string, 0, s.Len())
	for _, a := range s.Attrs() {
		parts = append(parts, sc.Name(a))
	}
	return strings.Join(parts, ",")
}

// FullSet returns the set {0, …, n-1}.
func FullSet(n int) AttrSet {
	if n < 0 || n > MaxAttrs {
		panic(fmt.Sprintf("relation: schema width %d out of range [0,%d]", n, MaxAttrs))
	}
	if n == MaxAttrs {
		return AttrSet(^uint64(0))
	}
	return AttrSet(1<<uint(n)) - 1
}
