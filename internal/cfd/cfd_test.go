package cfd

import (
	"context"
	"slices"
	"strings"
	"testing"

	"relatrust/internal/relation"
	"relatrust/internal/session"
	"relatrust/internal/testkit"
)

func zipInstance() *relation.Instance {
	return testkit.Build([]string{"CC", "ZIP", "City"}, [][]string{
		{"US", "62701", "Springfield"},
		{"US", "62701", "Springfeld"}, // violates ZIP->City when CC=US
		{"UK", "SW1", "London"},
		{"UK", "SW1", "Westminster"}, // no violation: pattern is CC=US
		{"US", "10001", "NYC"},
	})
}

func TestParseAndFormat(t *testing.T) {
	s := relation.MustSchema("CC", "ZIP", "City")
	c, err := Parse(s, "CC,ZIP->City | US,_")
	if err != nil {
		t.Fatal(err)
	}
	if c.LHSPattern[0] != "US" {
		t.Errorf("pattern = %v", c.LHSPattern)
	}
	if _, wild := c.LHSPattern[1]; wild {
		t.Error("ZIP should be a wildcard")
	}
	if got := c.Format(s); got != "CC,ZIP->City | US,_" {
		t.Errorf("Format = %q", got)
	}
	// RHS pattern.
	c2, err := Parse(s, "CC->ZIP | UK || SW1")
	if err != nil {
		t.Fatal(err)
	}
	if c2.RHSPattern != "SW1" {
		t.Errorf("RHS pattern = %q", c2.RHSPattern)
	}
	if !strings.Contains(c2.Format(s), "|| SW1") {
		t.Errorf("Format = %q", c2.Format(s))
	}
	// Pure FD (no pattern section).
	c3, err := Parse(s, "CC->ZIP")
	if err != nil {
		t.Fatal(err)
	}
	if len(c3.LHSPattern) != 0 || c3.RHSPattern != "" {
		t.Error("pure FD should have no patterns")
	}
}

func TestParseErrors(t *testing.T) {
	s := relation.MustSchema("A", "B", "C")
	for _, spec := range []string{
		"A->B | x,y",  // too many pattern cells
		"nope",        // no arrow
		"A->Z | x",    // unknown attribute
		"A,B->C | un", // one cell for two attrs
	} {
		if _, err := Parse(s, spec); err == nil {
			t.Errorf("Parse(%q) succeeded", spec)
		}
	}
}

func TestMatchesAndViolations(t *testing.T) {
	in := zipInstance()
	set, err := ParseSet(in.Schema, "CC,ZIP->City | US,_")
	if err != nil {
		t.Fatal(err)
	}
	vs := set.Violations(in, 0)
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly the US pair", vs)
	}
	if vs[0].T1 != 0 || vs[0].T2 != 1 {
		t.Errorf("violation = %+v", vs[0])
	}
	if set.SatisfiedBy(in) {
		t.Error("SatisfiedBy should be false")
	}
	// The same dependency without the pattern also fires on the UK pair.
	plain, _ := ParseSet(in.Schema, "CC,ZIP->City")
	if got := len(plain.Violations(in, 0)); got != 2 {
		t.Errorf("pattern-free violations = %d, want 2", got)
	}
}

func TestSingleViolations(t *testing.T) {
	in := zipInstance()
	set, err := ParseSet(in.Schema, "CC->ZIP | UK || SW1A")
	if err != nil {
		t.Fatal(err)
	}
	vs := set.Violations(in, 0)
	// Both UK tuples carry ZIP=SW1 ≠ SW1A.
	singles := 0
	for _, v := range vs {
		if v.T2 < 0 {
			singles++
		}
	}
	if singles != 2 {
		t.Errorf("single violations = %d, want 2", singles)
	}
}

func TestExtendIsRelaxation(t *testing.T) {
	in := zipInstance()
	c, _ := Parse(in.Schema, "ZIP->City | _")
	ext, err := c.Extend(relation.NewAttrSet(0))
	if err != nil {
		t.Fatal(err)
	}
	// Violations of the extension are a subset of the original's.
	before := Set{c}.Violations(in, 0)
	after := Set{ext}.Violations(in, 0)
	if len(after) > len(before) {
		t.Errorf("extension added violations: %d → %d", len(before), len(after))
	}
	if _, err := c.Extend(relation.NewAttrSet(2)); err == nil {
		t.Error("appending the RHS must fail")
	}
}

func TestRepairPairViolationsByData(t *testing.T) {
	in := zipInstance()
	set, _ := ParseSet(in.Schema, "CC,ZIP->City | US,_")
	r, err := RepairWithBudget(context.Background(), in, set, 10, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r == nil {
		t.Fatal("no repair")
	}
	if !r.Set.SatisfiedBy(r.Instance) {
		t.Fatal("repair violates the CFD set")
	}
	if r.FDCost != 0 {
		t.Errorf("large τ should keep the CFDs, cost=%v", r.FDCost)
	}
	if r.NumChanges() == 0 || r.NumChanges() > 2 {
		t.Errorf("expected 1-2 cell changes, got %d", r.NumChanges())
	}
	// The UK tuples must be untouched (outside the pattern).
	for _, c := range r.Changed {
		if in.Tuples[c.Tuple][0].Str() == "UK" {
			t.Errorf("changed a UK tuple %v that the pattern excludes", c)
		}
	}
}

func TestRepairRelaxesAtTauZero(t *testing.T) {
	in := zipInstance()
	set, _ := ParseSet(in.Schema, "ZIP->City | _")
	// ZIP->City is violated by both pairs; at τ=0 the repair must append
	// an attribute (CC cannot help the US pair — same CC — so City/CC…:
	// the only appendable attribute is CC, which fixes the UK pair only;
	// the US pair differs solely on City → permanent → τ=0 infeasible).
	r, err := RepairWithBudget(context.Background(), in, set, 0, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r != nil {
		t.Fatalf("τ=0 must be infeasible here, got %v", r)
	}
	// With τ=2 (α=1, the US pair repaired by data), relaxation+data works.
	r, err = RepairWithBudget(context.Background(), in, set, 2, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r == nil {
		t.Fatal("τ=2 should be feasible")
	}
	if !r.Set.SatisfiedBy(r.Instance) {
		t.Fatal("inconsistent repair")
	}
	if r.NumChanges() > 2 {
		t.Errorf("changes %d exceed τ", r.NumChanges())
	}
}

func TestRepairSingleViolations(t *testing.T) {
	in := zipInstance()
	set, _ := ParseSet(in.Schema, "CC->ZIP | UK || SW1A")
	// Two single violations, α = 1: need τ ≥ 2.
	r, err := RepairWithBudget(context.Background(), in, set, 1, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r != nil {
		t.Fatal("τ=1 cannot cover two unavoidable single violations")
	}
	r, err = RepairWithBudget(context.Background(), in, set, 2, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r == nil {
		t.Fatal("τ=2 should repair both singles")
	}
	if !r.Set.SatisfiedBy(r.Instance) {
		t.Fatal("repair violates set")
	}
	if r.NumChanges() != 2 {
		t.Errorf("changes = %d, want 2", r.NumChanges())
	}
}

func TestRepairMixedSet(t *testing.T) {
	in := testkit.Build([]string{"CC", "ZIP", "City", "Region"}, [][]string{
		{"US", "1", "a", "r1"},
		{"US", "1", "b", "r1"},
		{"US", "2", "c", "r2"},
		{"UK", "9", "x", "r9"},
		{"UK", "9", "y", "r9"},
	})
	set, err := ParseSet(in.Schema, "CC,ZIP->City | US,_; CC->Region | UK || r9")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RepairWithBudget(context.Background(), in, set, 5, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r == nil {
		t.Fatal("no repair")
	}
	if !r.Set.SatisfiedBy(r.Instance) {
		t.Fatal("violates after repair")
	}
}

// TestRepairReusesEngineKeyTables: a repair over a caller's engine builds
// its LHS key tables on that engine, and a second repair over the same
// engine finds them cached and repairs identically.
func TestRepairReusesEngineKeyTables(t *testing.T) {
	in := zipInstance()
	set, err := ParseSet(in.Schema, "CC,ZIP->City | US,_")
	if err != nil {
		t.Fatal(err)
	}
	eng := session.New(in)
	first, err := RepairWithBudget(context.Background(), in, set, 10, Config{Seed: 1, Engine: eng})
	if err != nil || first == nil {
		t.Fatalf("repair: %v, %v", first, err)
	}
	built := eng.KeyTables().Len()
	if built == 0 {
		t.Fatal("repair built no key tables on the caller's engine")
	}
	again, err := RepairWithBudget(context.Background(), in, set, 10, Config{Seed: 1, Engine: eng})
	if err != nil || again == nil {
		t.Fatalf("repeat repair: %v, %v", again, err)
	}
	if n := eng.KeyTables().Len(); n != built {
		t.Errorf("repeat repair grew the key tables from %d to %d", built, n)
	}
	if !slices.Equal(first.Changed, again.Changed) {
		t.Errorf("repeat repair changed %v, first %v", again.Changed, first.Changed)
	}
}

func TestParseSetErrors(t *testing.T) {
	s := relation.MustSchema("A", "B")
	if _, err := ParseSet(s, "# nothing"); err == nil {
		t.Error("empty set must fail")
	}
	if _, err := ParseSet(s, "A->B | bogus,extra"); err == nil {
		t.Error("bad member must fail")
	}
}

func TestNewValidatesPattern(t *testing.T) {
	s := relation.MustSchema("A", "B", "C")
	f, _ := Parse(s, "A->B")
	if _, err := New(f.Embedded, map[int]string{2: "x"}, ""); err == nil {
		t.Error("pattern on a non-LHS attribute must fail")
	}
}
