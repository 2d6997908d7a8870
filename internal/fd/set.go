package fd

import (
	"cmp"
	"fmt"
	"strings"

	"relatrust/internal/relation"
)

// Set is an ordered list of FDs, Σ. Order is significant: the repair search
// represents candidate modifications as a vector of LHS extensions indexed
// by position in Σ (the paper keeps |Σ′| = |Σ| by allowing duplicates).
type Set []FD

// ParseSet parses a semicolon- or newline-separated list of FD specs.
// Multi-attribute RHS specs like "A->B,C" are expanded into one FD per RHS
// attribute.
func ParseSet(s *relation.Schema, specs string) (Set, error) {
	var out Set
	fields := strings.FieldsFunc(specs, func(r rune) bool { return r == ';' || r == '\n' })
	for _, spec := range fields {
		spec = strings.TrimSpace(spec)
		if spec == "" || strings.HasPrefix(spec, "#") {
			continue
		}
		lhsStr, rhsStr, ok := cutArrow(spec)
		if !ok {
			return nil, fmt.Errorf("fd: %q is not of the form \"A,B->C\"", spec)
		}
		lhs, err := s.ParseAttrs(lhsStr)
		if err != nil {
			return nil, err
		}
		for _, rhsName := range strings.Split(rhsStr, ",") {
			rhsName = strings.TrimSpace(rhsName)
			if rhsName == "" {
				continue
			}
			rhs := s.Index(rhsName)
			if rhs < 0 {
				return nil, fmt.Errorf("fd: unknown RHS attribute %q in %q", rhsName, spec)
			}
			f, err := New(lhs, rhs)
			if err != nil {
				return nil, err
			}
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fd: no dependencies found in %q", specs)
	}
	return out, nil
}

// MustParseSet is ParseSet but panics on error.
func MustParseSet(s *relation.Schema, specs string) Set {
	set, err := ParseSet(s, specs)
	if err != nil {
		panic(err)
	}
	return set
}

// Clone returns a copy of the set.
func (set Set) Clone() Set { return append(Set(nil), set...) }

// Alpha returns α = min{|R|−1, |Σ|}, at least 1, for a schema of the given
// width |R|: Theorem 3's bound on the cells Algorithm 4 changes per
// rewritten tuple, so a repair over a vertex cover C changes at most α·|C|
// cells.
func (set Set) Alpha(width int) int { return max(1, min(width-1, len(set))) }

// Equal reports position-wise equality.
func (set Set) Equal(other Set) bool {
	if len(set) != len(other) {
		return false
	}
	for i := range set {
		if !set[i].Equal(other[i]) {
			return false
		}
	}
	return true
}

// String renders the set with attribute indices.
func (set Set) String() string {
	parts := make([]string, len(set))
	for i, f := range set {
		parts[i] = f.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Compare is the canonical FD order: by RHS, then LHS size, then LHS (as
// a bitmask). Discovery returns its results in this order, and the
// server's sigma frame lists a mined set in it. It suits slices.SortFunc.
func Compare(a, b FD) int {
	if c := cmp.Compare(a.RHS, b.RHS); c != 0 {
		return c
	}
	if c := cmp.Compare(a.LHS.Len(), b.LHS.Len()); c != 0 {
		return c
	}
	return cmp.Compare(a.LHS, b.LHS)
}

// Format renders the set with attribute names, one FD per element, joined
// by "; ".
func (set Set) Format(s *relation.Schema) string {
	parts := make([]string, len(set))
	for i, f := range set {
		parts[i] = f.Format(s)
	}
	return strings.Join(parts, "; ")
}

// SatisfiedBy reports whether the instance satisfies every FD in the set.
// It runs in O(|Σ|·n) time by partitioning tuples on dictionary-encoded
// LHS codes instead of testing all pairs. Variables are interned by
// identity, so two tuples land in the same group iff they agree on the LHS
// under V-instance semantics.
//
// Like every code-column consumer, this reads the instance's cached
// dictionary codes: callers that mutate cells in place between checks must
// call Instance.InvalidateCodes first (appends and clones are tracked
// automatically).
func (set Set) SatisfiedBy(in *relation.Instance) bool {
	return set.FirstViolation(in) == nil
}

// Violation describes one violating tuple pair and the FD (by position) it
// violates.
type Violation struct {
	T1, T2 int // tuple indices, T1 < T2
	FD     int // index into the Set
}

// FirstViolation returns one violation, or nil if the instance satisfies
// the set. The pair is the first in tuple order: for the first FD (in Σ
// order) with any violation, T2 is the smallest tuple index whose RHS
// disagrees with the representative (first member, = T1) of its LHS group.
// The pair a string-keyed single-pass scan would report; pinned by an
// equivalence test against that oracle.
func (set Set) FirstViolation(in *relation.Instance) *Violation {
	p := relation.NewPartitioner(in)
	for fi, f := range set {
		p.BeginAll()
		p.RefineSet(f.LHS)
		pt := p.Partition()
		rhs, _ := in.Codes(f.RHS)
		// Refinement is stable over the ascending seed, so each group lists
		// its members in tuple order and g[0] is the group representative.
		// The scan's first conflicting tuple is the smallest "first member
		// disagreeing with its representative" across groups.
		t2 := -1
		t1 := -1
		for gi := 0; gi < pt.NumGroups(); gi++ {
			g := pt.Group(gi)
			if len(g) < 2 {
				continue
			}
			r0 := rhs[g[0]]
			for _, m := range g[1:] {
				if rhs[m] != r0 {
					if t2 < 0 || int(m) < t2 {
						t1, t2 = int(g[0]), int(m)
					}
					break
				}
			}
		}
		if t2 >= 0 {
			return &Violation{T1: t1, T2: t2, FD: fi}
		}
	}
	return nil
}

// Violations enumerates all violating pairs for every FD in the set, up to
// the given cap (cap <= 0 means unlimited). The result is deterministic for
// a fixed instance: FDs in Σ order, LHS groups in order of their first
// member (stable code-based refinement keeps members in tuple order), pairs
// in lexicographic (T1, T2) order within a group. Beware: badly violated
// FDs can induce Θ(n²) pairs; use the conflict package for cover
// computations that avoid enumeration.
func (set Set) Violations(in *relation.Instance, cap int) []Violation {
	p := relation.NewPartitioner(in)
	var out []Violation
	for fi, f := range set {
		p.BeginAll()
		p.RefineSet(f.LHS)
		pt := p.Partition()
		rhs, _ := in.Codes(f.RHS)
		for gi := 0; gi < pt.NumGroups(); gi++ {
			g := pt.Group(gi)
			for a := 0; a < len(g); a++ {
				for b := a + 1; b < len(g); b++ {
					if rhs[g[a]] != rhs[g[b]] {
						out = append(out, Violation{T1: int(g[a]), T2: int(g[b]), FD: fi})
						if cap > 0 && len(out) >= cap {
							return out
						}
					}
				}
			}
		}
	}
	return out
}
