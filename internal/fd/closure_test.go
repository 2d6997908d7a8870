package fd

import (
	"testing"

	"relatrust/internal/relation"
)

func TestClosure(t *testing.T) {
	set := MustParseSet(schemaABCD, "A->B; B->C")
	got := set.Closure(relation.NewAttrSet(0))
	if got != relation.NewAttrSet(0, 1, 2) {
		t.Errorf("A+ = %v, want {A,B,C}", got)
	}
	if set.Closure(relation.NewAttrSet(3)) != relation.NewAttrSet(3) {
		t.Error("D+ should be {D}")
	}
}

func TestImplies(t *testing.T) {
	set := MustParseSet(schemaABCD, "A->B; B->C")
	if !set.Implies(MustNew(relation.NewAttrSet(0), 2)) {
		t.Error("A->C is implied (transitivity)")
	}
	if set.Implies(MustNew(relation.NewAttrSet(2), 0)) {
		t.Error("C->A is not implied")
	}
	if !set.Implies(MustNew(relation.NewAttrSet(0, 3), 1)) {
		t.Error("A,D->B is implied (augmentation)")
	}
}

func TestRelaxationSemantics(t *testing.T) {
	sigma := MustParseSet(schemaABCD, "A->B")
	relaxed := MustParseSet(schemaABCD, "A,C->B")
	if !relaxed.IsRelaxationOf(sigma) {
		t.Error("appending LHS attributes is a relaxation")
	}
	if sigma.IsRelaxationOf(relaxed) {
		t.Error("the original is not a relaxation of the extension")
	}
}

func TestEquivalentTo(t *testing.T) {
	a := MustParseSet(schemaABCD, "A->B; B->C")
	b := MustParseSet(schemaABCD, "A->B; B->C; A->C")
	if !a.EquivalentTo(b) {
		t.Error("adding an implied FD preserves equivalence")
	}
	c := MustParseSet(schemaABCD, "A->B")
	if a.EquivalentTo(c) {
		t.Error("dropping B->C changes the theory")
	}
}

// EquivalentTo reports whether the two sets imply each other.
func (set Set) EquivalentTo(other Set) bool {
	return set.ImpliesSet(other) && other.ImpliesSet(set)
}
