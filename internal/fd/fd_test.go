package fd

import (
	"testing"

	"relatrust/internal/relation"
)

var schemaABCD = relation.MustSchema("A", "B", "C", "D")

func TestParse(t *testing.T) {
	f, err := Parse(schemaABCD, "A,B->C")
	if err != nil {
		t.Fatal(err)
	}
	if f.LHS != relation.NewAttrSet(0, 1) || f.RHS != 2 {
		t.Errorf("parsed %v", f)
	}
	if f.Format(schemaABCD) != "A,B->C" {
		t.Errorf("Format = %q", f.Format(schemaABCD))
	}
	if _, err := Parse(schemaABCD, "A→B"); err != nil {
		t.Errorf("unicode arrow rejected: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"A,B",      // no arrow
		"A->Z",     // unknown RHS
		"Z->A",     // unknown LHS
		"A->B,C",   // multi-attribute RHS
		"A,B->A",   // trivial
		"->",       // empty everything
		"A -> B,C", // multi RHS with spaces
	} {
		if _, err := Parse(schemaABCD, spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestNewRejectsTrivial(t *testing.T) {
	if _, err := New(relation.NewAttrSet(1), 1); err == nil {
		t.Error("A ∈ X must be rejected")
	}
	if _, err := New(relation.NewAttrSet(1), -1); err == nil {
		t.Error("negative RHS must be rejected")
	}
}

func TestExtend(t *testing.T) {
	f := MustNew(relation.NewAttrSet(0), 1)
	g, err := f.Extend(relation.NewAttrSet(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if g.LHS != relation.NewAttrSet(0, 2, 3) || g.RHS != 1 {
		t.Errorf("Extend = %v", g)
	}
	if _, err := f.Extend(relation.NewAttrSet(1)); err == nil {
		t.Error("extending with the RHS must fail")
	}
}

func TestViolates(t *testing.T) {
	f := MustNew(relation.NewAttrSet(0), 1) // A->B
	mk := func(a, b string) relation.Tuple {
		return relation.Tuple{relation.Const(a), relation.Const(b)}
	}
	if !f.Violates(mk("1", "x"), mk("1", "y")) {
		t.Error("same LHS, different RHS must violate")
	}
	if f.Violates(mk("1", "x"), mk("2", "y")) {
		t.Error("different LHS must not violate")
	}
	if f.Violates(mk("1", "x"), mk("1", "x")) {
		t.Error("identical tuples must not violate")
	}
}

func TestViolatesWithVariables(t *testing.T) {
	var g relation.VarGen
	f := MustNew(relation.NewAttrSet(0), 1)
	v := g.Fresh()
	t1 := relation.Tuple{relation.Const("1"), v}
	t2 := relation.Tuple{relation.Const("1"), g.Fresh()}
	if !f.Violates(t1, t2) {
		t.Error("distinct RHS variables differ, so the pair violates")
	}
	t3 := relation.Tuple{relation.Const("1"), v}
	if f.Violates(t1, t3) {
		t.Error("identical RHS variable means no violation")
	}
	t4 := relation.Tuple{g.Fresh(), relation.Const("x")}
	if f.Violates(t1, t4) {
		t.Error("a fresh LHS variable never agrees with a constant")
	}
}

func TestViolatedByDiff(t *testing.T) {
	f := MustNew(relation.NewAttrSet(0), 1) // A->B
	if !f.ViolatedByDiff(relation.NewAttrSet(1)) {
		t.Error("diff {B} violates A->B")
	}
	if !f.ViolatedByDiff(relation.NewAttrSet(1, 2)) {
		t.Error("diff {B,C} violates A->B")
	}
	if f.ViolatedByDiff(relation.NewAttrSet(0, 1)) {
		t.Error("diff containing an LHS attribute cannot violate")
	}
	if f.ViolatedByDiff(relation.NewAttrSet(2)) {
		t.Error("diff without the RHS cannot violate")
	}
}

func TestViolatedByDiffAgreesWithViolates(t *testing.T) {
	// For constant tuples, ViolatedByDiff(DiffSet(t,u)) == Violates(t,u).
	f := MustNew(relation.NewAttrSet(0, 2), 3)
	rows := [][]string{
		{"1", "1", "1", "1"},
		{"1", "2", "1", "2"},
		{"1", "1", "2", "2"},
		{"2", "1", "1", "1"},
	}
	tuples := make([]relation.Tuple, len(rows))
	for i, r := range rows {
		tp := make(relation.Tuple, len(r))
		for j, v := range r {
			tp[j] = relation.Const(v)
		}
		tuples[i] = tp
	}
	for i := range tuples {
		for j := i + 1; j < len(tuples); j++ {
			d := tuples[i].DiffSet(tuples[j])
			if f.ViolatedByDiff(d) != f.Violates(tuples[i], tuples[j]) {
				t.Errorf("mismatch for pair (%d,%d), diff %v", i, j, d)
			}
		}
	}
}

// ViolatedByDiff reports whether a tuple pair with the given difference set
// violates the FD: the pair agrees on the LHS (LHS ∩ d = ∅) and differs on
// the RHS (A ∈ d). This is the test Algorithm 3 of the paper applies per
// difference set.
func (f FD) ViolatedByDiff(d relation.AttrSet) bool {
	return !f.LHS.Intersects(d) && d.Contains(f.RHS)
}
