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

// MinimalCover returns a minimal cover of the set in the sense of [1]
// (Abiteboul et al.): every FD has a single RHS attribute (already our
// normal form), no LHS attribute is redundant, and no FD is redundant.
// The result is a new set; the receiver is unchanged.
func (set Set) MinimalCover() Set {
	cover := set.Clone()
	// Remove extraneous LHS attributes: A is extraneous in X→B if
	// (X\{A})⁺ under the current cover still contains B.
	for i := range cover {
		for {
			reduced := false
			for _, a := range cover[i].LHS.Attrs() {
				smaller := cover[i].LHS.Remove(a)
				// A is extraneous iff B ∈ (X\{A})⁺ under the current
				// cover, with the unreduced FD still in place: X→B only
				// fires during that closure if A itself is derivable.
				if cover.Closure(smaller).Contains(cover[i].RHS) {
					cover[i] = FD{LHS: smaller, RHS: cover[i].RHS}
					reduced = true
					break
				}
			}
			if !reduced {
				break
			}
		}
	}
	// Remove redundant FDs: f is redundant if cover\{f} implies f.
	out := cover[:0:0]
	for i := range cover {
		rest := make(Set, 0, len(cover)-1)
		rest = append(rest, out...)
		rest = append(rest, cover[i+1:]...)
		if !rest.Implies(cover[i]) {
			out = append(out, cover[i])
		}
	}
	return out
}
