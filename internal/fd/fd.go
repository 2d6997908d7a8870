// Package fd implements functional dependencies over the relation substrate:
// parsing, satisfaction and violation checks, attribute closure, implication,
// minimal covers, and the LHS-relaxation space S(Σ) of the paper (Section 3.1).
package fd

import (
	"fmt"
	"strings"

	"relatrust/internal/relation"
)

// FD is a functional dependency X → A in the normal form the paper assumes:
// a set of LHS attributes and a single RHS attribute, with A ∉ X.
type FD struct {
	LHS relation.AttrSet
	RHS int
}

// New builds an FD, rejecting trivial dependencies (A ∈ X) and empty RHS.
func New(lhs relation.AttrSet, rhs int) (FD, error) {
	if rhs < 0 || rhs >= relation.MaxAttrs {
		return FD{}, fmt.Errorf("fd: RHS attribute %d out of range", rhs)
	}
	if lhs.Contains(rhs) {
		return FD{}, fmt.Errorf("fd: trivial dependency: RHS attribute %d appears in LHS %s", rhs, lhs)
	}
	return FD{LHS: lhs, RHS: rhs}, nil
}

// MustNew is New but panics on error.
func MustNew(lhs relation.AttrSet, rhs int) FD {
	f, err := New(lhs, rhs)
	if err != nil {
		panic(err)
	}
	return f
}

// Attrs returns LHS ∪ {RHS}.
func (f FD) Attrs() relation.AttrSet { return f.LHS.Add(f.RHS) }

// Extend returns the FD with Y appended to the LHS (the paper's relaxation
// operator). Attributes equal to the RHS are rejected to keep the FD
// non-trivial.
func (f FD) Extend(y relation.AttrSet) (FD, error) {
	if y.Contains(f.RHS) {
		return FD{}, fmt.Errorf("fd: cannot append RHS attribute %d to LHS", f.RHS)
	}
	return FD{LHS: f.LHS.Union(y), RHS: f.RHS}, nil
}

// Violates reports whether the tuple pair (t, u) violates the FD under
// V-instance semantics: they agree on every LHS attribute but differ on the
// RHS.
func (f FD) Violates(t, u relation.Tuple) bool {
	return t.AgreeOn(u, f.LHS) && !t[f.RHS].Equal(u[f.RHS])
}

// Equal reports structural equality.
func (f FD) Equal(g FD) bool { return f.LHS == g.LHS && f.RHS == g.RHS }

// String renders the FD with attribute indices, e.g. "{0,1}→3".
func (f FD) String() string { return fmt.Sprintf("%s→%d", f.LHS, f.RHS) }

// Format renders the FD with attribute names, e.g. "Surname,GivenName->Income".
func (f FD) Format(s *relation.Schema) string {
	return f.LHS.Names(s) + "->" + s.Name(f.RHS)
}

// Parse reads an FD in "A,B->C" form against a schema. A multi-attribute
// RHS such as "A->B,C" is rejected; split it into one FD per RHS attribute
// with ParseSet.
func Parse(s *relation.Schema, spec string) (FD, error) {
	lhsStr, rhsStr, ok := cutArrow(spec)
	if !ok {
		return FD{}, fmt.Errorf("fd: %q is not of the form \"A,B->C\"", spec)
	}
	lhs, err := s.ParseAttrs(lhsStr)
	if err != nil {
		return FD{}, err
	}
	rhsStr = strings.TrimSpace(rhsStr)
	if strings.Contains(rhsStr, ",") {
		return FD{}, fmt.Errorf("fd: %q has a multi-attribute RHS; use one FD per RHS attribute", spec)
	}
	rhs := s.Index(rhsStr)
	if rhs < 0 {
		return FD{}, fmt.Errorf("fd: unknown RHS attribute %q in %q", rhsStr, spec)
	}
	return New(lhs, rhs)
}

// cutArrow splits on "->" or the unicode arrow "→".
func cutArrow(s string) (lhs, rhs string, ok bool) {
	if l, r, found := strings.Cut(s, "->"); found {
		return l, r, true
	}
	if l, r, found := strings.Cut(s, "→"); found {
		return l, r, true
	}
	return "", "", false
}
