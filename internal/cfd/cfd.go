// Package cfd extends the relative-trust framework to Conditional
// Functional Dependencies — the first item on the paper's future-work list
// (Section 10: "our relative trust framework is relevant and applicable to
// many other types of constraints, such as conditional FDs").
//
// A CFD φ = (X → A, tp) embeds a standard FD and adds a pattern tuple tp
// over X ∪ {A}: each pattern cell is either a constant that matching
// tuples must carry, or the wildcard "_". The CFD constrains only the
// tuples matching the X-part of the pattern; a constant A-pattern
// additionally pins the RHS value itself (single-tuple violations), while
// a wildcard A behaves like the FD's RHS restricted to the matching
// subset.
//
// The relative-trust machinery carries over: relaxation appends
// wildcard-patterned attributes to the LHS (every instance satisfying the
// original CFD satisfies the extension), τ caps cell changes, and a
// best-first search over the same single-parent state tree finds the
// minimal relaxation whose certified repair budget fits τ. The conflict
// structure restricted to pattern-matching tuples is exactly the FD case,
// so the guarantees (2-approximate covers, change bound per rewritten
// tuple) transfer. The data repair is the FD one too: repair.Rewrite, the
// shared Algorithm 4 loop, with each CFD's LHS pattern as its
// constraint's tuple filter and its constant RHS pattern as the
// constraint's required RHS.
package cfd

import (
	"fmt"
	"strings"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
)

// Wildcard is the pattern cell that matches any value.
const Wildcard = "_"

// CFD is a conditional functional dependency (X → A, tp).
type CFD struct {
	// Embedded is the underlying FD X → A.
	Embedded fd.FD
	// LHSPattern maps LHS attributes to required constants; attributes
	// absent from the map are wildcards.
	LHSPattern map[int]string
	// RHSPattern is the required RHS constant, or "" for a wildcard.
	RHSPattern string
}

// New builds a CFD, validating that pattern attributes belong to the LHS.
func New(embedded fd.FD, lhsPattern map[int]string, rhsPattern string) (CFD, error) {
	for a := range lhsPattern {
		if !embedded.LHS.Contains(a) {
			return CFD{}, fmt.Errorf("cfd: pattern attribute %d is not in the LHS %s", a, embedded.LHS)
		}
	}
	cp := make(map[int]string, len(lhsPattern))
	for a, v := range lhsPattern {
		cp[a] = v
	}
	return CFD{Embedded: embedded, LHSPattern: cp, RHSPattern: rhsPattern}, nil
}

// Parse reads a CFD in the form "A,B->C | a1,_ || c" against a schema:
// the FD part, a comma-separated LHS pattern aligned with the LHS
// attributes in schema order ("_" = wildcard), and an optional "|| const"
// RHS pattern. The pattern section may be omitted entirely (pure FD).
func Parse(s *relation.Schema, spec string) (CFD, error) {
	fdPart, patPart, hasPattern := strings.Cut(spec, "|")
	f, err := fd.Parse(s, strings.TrimSpace(fdPart))
	if err != nil {
		return CFD{}, err
	}
	cfd := CFD{Embedded: f, LHSPattern: map[int]string{}}
	if !hasPattern {
		return cfd, nil
	}
	lhsPart, rhsPart, hasRHS := strings.Cut(patPart, "||")
	attrs := f.LHS.Attrs()
	fields := strings.Split(strings.TrimSpace(lhsPart), ",")
	if len(fields) == 1 && strings.TrimSpace(fields[0]) == "" {
		fields = nil
	}
	if len(fields) != 0 && len(fields) != len(attrs) {
		return CFD{}, fmt.Errorf("cfd: pattern %q has %d cells for %d LHS attributes", lhsPart, len(fields), len(attrs))
	}
	for i, cell := range fields {
		cell = strings.TrimSpace(cell)
		if cell != Wildcard && cell != "" {
			cfd.LHSPattern[attrs[i]] = cell
		}
	}
	if hasRHS {
		v := strings.TrimSpace(rhsPart)
		if v != Wildcard {
			cfd.RHSPattern = v
		}
	}
	return cfd, nil
}

// Matches reports whether tuple t matches the CFD's LHS pattern.
func (c CFD) Matches(t relation.Tuple) bool {
	for a, want := range c.LHSPattern {
		cell := t[a]
		if cell.IsVar() || cell.Str() != want {
			return false
		}
	}
	return true
}

// SingleViolation reports whether t alone violates the CFD: it matches the
// LHS pattern but its RHS differs from a constant RHS pattern.
func (c CFD) SingleViolation(t relation.Tuple) bool {
	if c.RHSPattern == "" || !c.Matches(t) {
		return false
	}
	cell := t[c.Embedded.RHS]
	return cell.IsVar() || cell.Str() != c.RHSPattern
}

// Extend appends wildcard attributes to the LHS — the relaxation operator.
// Appended attributes receive no pattern constant, so every instance
// satisfying c satisfies the extension.
func (c CFD) Extend(y relation.AttrSet) (CFD, error) {
	g, err := c.Embedded.Extend(y)
	if err != nil {
		return CFD{}, err
	}
	return CFD{Embedded: g, LHSPattern: c.LHSPattern, RHSPattern: c.RHSPattern}, nil
}

// Format renders the CFD with attribute names.
func (c CFD) Format(s *relation.Schema) string {
	var b strings.Builder
	b.WriteString(c.Embedded.Format(s))
	if len(c.LHSPattern) == 0 && c.RHSPattern == "" {
		return b.String()
	}
	b.WriteString(" | ")
	cells := make([]string, 0, c.Embedded.LHS.Len())
	for _, a := range c.Embedded.LHS.Attrs() {
		if v, ok := c.LHSPattern[a]; ok {
			cells = append(cells, v)
		} else {
			cells = append(cells, Wildcard)
		}
	}
	b.WriteString(strings.Join(cells, ","))
	if c.RHSPattern != "" {
		b.WriteString(" || ")
		b.WriteString(c.RHSPattern)
	}
	return b.String()
}

// Set is an ordered list of CFDs.
type Set []CFD

// ParseSet parses semicolon- or newline-separated CFD specs.
func ParseSet(s *relation.Schema, specs string) (Set, error) {
	var out Set
	for _, line := range strings.FieldsFunc(specs, func(r rune) bool { return r == ';' || r == '\n' }) {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		c, err := Parse(s, line)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cfd: no dependencies in %q", specs)
	}
	return out, nil
}

// Violation is one detected CFD violation: a pair (T2 ≥ 0) or a
// single-tuple pattern violation (T2 < 0).
type Violation struct {
	T1, T2 int
	CFD    int
}

// Violations enumerates violations of the set, up to max (0 = all). Pair
// violations are found by partitioning the pattern-matching tuples on
// dictionary-encoded LHS codes (no string projection keys, no pair scan
// across groups); the result is deterministic for a fixed instance — CFDs
// in set order, single-tuple violations in tuple order, then LHS groups in
// order of their first member (stable code-based refinement keeps members
// in tuple order), pairs in lexicographic order within a group.
//
// Like every code-column consumer, this reads the instance's cached
// dictionary codes: callers that mutate cells in place between checks must
// call Instance.InvalidateCodes first (appends and clones are tracked
// automatically).
func (set Set) Violations(in *relation.Instance, max int) []Violation {
	p := relation.NewPartitioner(in)
	var seed []int32
	var out []Violation
	add := func(v Violation) bool {
		out = append(out, v)
		return max > 0 && len(out) >= max
	}
	for ci, c := range set {
		// Single-tuple violations of constant RHS patterns.
		if c.RHSPattern != "" {
			for t := 0; t < in.N(); t++ {
				if c.SingleViolation(in.Tuples[t]) {
					if add(Violation{T1: t, T2: -1, CFD: ci}) {
						return out
					}
				}
			}
		}
		// Pair violations among matching tuples, via code-based LHS
		// partitioning of the pattern-matching subset.
		seed = seed[:0]
		for t := 0; t < in.N(); t++ {
			if c.Matches(in.Tuples[t]) {
				seed = append(seed, int32(t))
			}
		}
		p.Begin(seed)
		p.RefineSet(c.Embedded.LHS)
		pt := p.Partition()
		rhs, _ := in.Codes(c.Embedded.RHS)
		for gi := 0; gi < pt.NumGroups(); gi++ {
			g := pt.Group(gi)
			for i := 0; i < len(g); i++ {
				for j := i + 1; j < len(g); j++ {
					if rhs[g[i]] != rhs[g[j]] {
						if add(Violation{T1: int(g[i]), T2: int(g[j]), CFD: ci}) {
							return out
						}
					}
				}
			}
		}
	}
	return out
}

// SatisfiedBy reports whether the instance satisfies every CFD.
func (set Set) SatisfiedBy(in *relation.Instance) bool {
	return len(set.Violations(in, 1)) == 0
}

// Format renders the set with attribute names.
func (set Set) Format(s *relation.Schema) string {
	parts := make([]string, len(set))
	for i, c := range set {
		parts[i] = c.Format(s)
	}
	return strings.Join(parts, "; ")
}
