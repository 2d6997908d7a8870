package fd

import (
	"math/rand"
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

func TestMinimalCoverRemovesRedundantFD(t *testing.T) {
	set := MustParseSet(schemaABCD, "A->B; B->C; A->C")
	mc := set.MinimalCover()
	if len(mc) != 2 {
		t.Fatalf("minimal cover size = %d, want 2 (%v)", len(mc), mc)
	}
	if !mc.EquivalentTo(set) {
		t.Error("minimal cover must stay equivalent")
	}
}

func TestMinimalCoverReducesLHS(t *testing.T) {
	// In {A->B, A,B->C}, B is extraneous in the second FD's LHS.
	set := MustParseSet(schemaABCD, "A->B; A,B->C")
	mc := set.MinimalCover()
	if !mc.EquivalentTo(set) {
		t.Fatal("cover not equivalent")
	}
	for _, f := range mc {
		if f.RHS == 2 && f.LHS != relation.NewAttrSet(0) {
			t.Errorf("LHS of ...->C not reduced: %v", f)
		}
	}
	if set.IsMinimal() {
		t.Error("input set is not minimal")
	}
	if !mc.IsMinimal() {
		t.Error("cover of a cover must be minimal")
	}
}

func TestMinimalCoverRandomEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		width := 4 + rng.Intn(2)
		var set Set
		for len(set) < 3 {
			rhs := rng.Intn(width)
			var lhs relation.AttrSet
			for a := 0; a < width; a++ {
				if a != rhs && rng.Intn(3) == 0 {
					lhs = lhs.Add(a)
				}
			}
			if lhs.IsEmpty() {
				lhs = lhs.Add((rhs + 1) % width)
			}
			set = append(set, MustNew(lhs, rhs))
		}
		mc := set.MinimalCover()
		if !mc.EquivalentTo(set) {
			t.Fatalf("trial %d: cover %v not equivalent to %v", trial, mc, set)
		}
		if len(mc) > len(set) {
			t.Fatalf("trial %d: cover grew", trial)
		}
		// Every FD in the cover is non-redundant.
		for i := range mc {
			rest := append(mc[:i:i].Clone(), mc[i+1:]...)
			if len(rest) > 0 && rest.Implies(mc[i]) {
				t.Fatalf("trial %d: redundant FD %v survived in %v", trial, mc[i], mc)
			}
		}
	}
}

// EquivalentTo reports whether the two sets imply each other.
func (set Set) EquivalentTo(other Set) bool {
	return set.ImpliesSet(other) && other.ImpliesSet(set)
}

// IsMinimal reports whether the set is its own minimal cover (up to order).
func (set Set) IsMinimal() bool {
	mc := set.MinimalCover()
	if len(mc) != len(set) {
		return false
	}
	for i := range set {
		found := false
		for j := range mc {
			if set[i].Equal(mc[j]) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
