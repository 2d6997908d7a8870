package relation

import (
	"strings"
	"testing"
)

func small(t *testing.T) *Instance {
	t.Helper()
	in := NewInstance(MustSchema("A", "B", "C"))
	for _, row := range [][]string{{"1", "x", "p"}, {"1", "y", "p"}, {"2", "x", "q"}} {
		if err := in.AppendConsts(row...); err != nil {
			t.Fatal(err)
		}
	}
	return in
}

func TestInstanceAppendValidatesWidth(t *testing.T) {
	in := NewInstance(MustSchema("A", "B"))
	if err := in.AppendConsts("only-one"); err == nil {
		t.Error("short row must be rejected")
	}
	if err := in.Append(Tuple{Const("a")}); err == nil {
		t.Error("short tuple must be rejected")
	}
	if err := in.AppendConsts("a", "b"); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if in.N() != 1 {
		t.Errorf("N = %d, want 1", in.N())
	}
}

func TestTupleAgreeOnAndDiffSet(t *testing.T) {
	in := small(t)
	t0, t1 := in.Tuples[0], in.Tuples[1]
	if !t0.AgreeOn(t1, NewAttrSet(0, 2)) {
		t.Error("t0,t1 agree on A,C")
	}
	if t0.AgreeOn(t1, NewAttrSet(0, 1)) {
		t.Error("t0,t1 differ on B")
	}
	if d := t0.DiffSet(t1); d != NewAttrSet(1) {
		t.Errorf("DiffSet = %v, want {1}", d)
	}
	if d := t0.DiffSet(t0); !d.IsEmpty() {
		t.Errorf("DiffSet with self = %v, want empty", d)
	}
}

func TestTupleAgreeOnVariables(t *testing.T) {
	var g VarGen
	v := g.Fresh()
	a := Tuple{v, Const("1")}
	b := Tuple{v, Const("1")}
	c := Tuple{g.Fresh(), Const("1")}
	if !a.AgreeOn(b, NewAttrSet(0)) {
		t.Error("same variable must agree")
	}
	if a.AgreeOn(c, NewAttrSet(0)) {
		t.Error("distinct variables must not agree")
	}
}

func TestInstanceCloneIsDeep(t *testing.T) {
	in := small(t)
	cp := in.Clone()
	cp.Tuples[0][0] = Const("mutated")
	if in.Tuples[0][0].Str() != "1" {
		t.Error("Clone shares cell storage with the original")
	}
}

func TestProjectDistinguishesGroups(t *testing.T) {
	in := small(t)
	if in.Project(0, NewAttrSet(0)) != in.Project(1, NewAttrSet(0)) {
		t.Error("t0,t1 share A and must share the A-projection key")
	}
	if in.Project(0, NewAttrSet(0, 1)) == in.Project(1, NewAttrSet(0, 1)) {
		t.Error("t0,t1 differ on B and must differ on the AB-projection key")
	}
}

func TestProjectSeparatorAmbiguity(t *testing.T) {
	// Keys must not confuse ("ab","c") with ("a","bc").
	in := NewInstance(MustSchema("A", "B"))
	_ = in.AppendConsts("ab", "c")
	_ = in.AppendConsts("a", "bc")
	if in.Project(0, NewAttrSet(0, 1)) == in.Project(1, NewAttrSet(0, 1)) {
		t.Error("projection keys collide for distinct value pairs")
	}
}

func TestDiffCells(t *testing.T) {
	in := small(t)
	cp := in.Clone()
	cp.Tuples[1][2] = Const("CHANGED")
	cells, err := in.DiffCells(cp)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0] != (CellRef{Tuple: 1, Attr: 2}) {
		t.Errorf("DiffCells = %v, want [{1 2}]", cells)
	}
	if _, err := in.DiffCells(NewInstance(in.Schema)); err == nil {
		t.Error("tuple-count mismatch must error")
	}
}

func TestGroundInstantiatesFreshDistinctValues(t *testing.T) {
	var g VarGen
	in := NewInstance(MustSchema("A"))
	v1, v2 := g.Fresh(), g.Fresh()
	_ = in.Append(Tuple{Const("fresh0")}) // collides with the generator prefix
	_ = in.Append(Tuple{v1})
	_ = in.Append(Tuple{v2})
	_ = in.Append(Tuple{v1}) // same variable twice

	ground := in.Ground("fresh")
	if ground.CountVars() != 0 {
		t.Fatal("Ground left variables behind")
	}
	g1 := ground.Tuples[1][0].Str()
	g2 := ground.Tuples[2][0].Str()
	g3 := ground.Tuples[3][0].Str()
	if g1 == g2 {
		t.Error("distinct variables must ground to distinct values")
	}
	if g1 != g3 {
		t.Error("the same variable must ground to one value")
	}
	if g1 == "fresh0" || g2 == "fresh0" {
		t.Error("grounded values must avoid constants already in the instance")
	}
	if in.CountVars() != 3 {
		t.Error("Ground must not mutate the receiver")
	}
}

func TestCellRefFormatting(t *testing.T) {
	s := MustSchema("A", "Phone")
	c := CellRef{Tuple: 3, Attr: 1}
	if c.String() != "t3[1]" {
		t.Errorf("String = %q", c.String())
	}
	if c.Format(s) != "t3[Phone]" {
		t.Errorf("Format = %q", c.Format(s))
	}
}

func TestInstanceStringRendersTable(t *testing.T) {
	out := small(t).String()
	if !strings.Contains(out, "A") || !strings.Contains(out, "q") {
		t.Errorf("table rendering missing content:\n%s", out)
	}
	if got := len(strings.Split(strings.TrimRight(out, "\n"), "\n")); got != 4 {
		t.Errorf("table has %d lines, want 4 (header + 3 rows)", got)
	}
}

// CountVars returns the number of variable cells in the instance.
func (in *Instance) CountVars() int {
	n := 0
	for _, t := range in.Tuples {
		for _, v := range t {
			if v.IsVar() {
				n++
			}
		}
	}
	return n
}
