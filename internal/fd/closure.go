package fd

import (
	"relatrust/internal/relation"
)

// Closure returns the attribute closure X⁺ of X under the set, computed with
// the standard fixed-point iteration (Armstrong's axioms).
func (set Set) Closure(x relation.AttrSet) relation.AttrSet {
	closure := x
	for changed := true; changed; {
		changed = false
		for _, f := range set {
			if f.LHS.SubsetOf(closure) && !closure.Contains(f.RHS) {
				closure = closure.Add(f.RHS)
				changed = true
			}
		}
	}
	return closure
}

// Implies reports whether the set logically implies the FD g: g.RHS ∈ g.LHS⁺.
func (set Set) Implies(g FD) bool {
	return set.Closure(g.LHS).Contains(g.RHS)
}

// ImpliesSet reports whether the set logically implies every FD of other.
func (set Set) ImpliesSet(other Set) bool {
	for _, g := range other {
		if !set.Implies(g) {
			return false
		}
	}
	return true
}

// IsRelaxationOf reports whether every FD of this set is implied by the
// other set — i.e. I ⊨ other implies I ⊨ set for every instance I. This is
// the paper's condition for Σ′ ∈ S(Σ) (Section 3.1), which our LHS-append
// operator guarantees by construction; the predicate exists so tests can
// verify it for arbitrary candidates.
func (set Set) IsRelaxationOf(other Set) bool {
	return other.ImpliesSet(set)
}
