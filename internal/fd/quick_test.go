package fd

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"relatrust/internal/relation"
)

// genFD draws a random non-trivial FD over width attributes.
func genFD(rng *rand.Rand, width int) FD {
	rhs := rng.Intn(width)
	var lhs relation.AttrSet
	for lhs.IsEmpty() {
		for a := 0; a < width; a++ {
			if a != rhs && rng.Intn(2) == 0 {
				lhs = lhs.Add(a)
			}
		}
	}
	return FD{LHS: lhs, RHS: rhs}
}

// fdSetGen implements quick.Generator for small random FD sets.
type fdSetGen struct{ Set Set }

func (fdSetGen) Generate(rng *rand.Rand, _ int) reflect.Value {
	width := 4 + rng.Intn(3)
	k := 1 + rng.Intn(3)
	set := make(Set, 0, k)
	for len(set) < k {
		set = append(set, genFD(rng, width))
	}
	return reflect.ValueOf(fdSetGen{Set: set})
}

// TestQuickClosureProperties: X ⊆ X⁺, monotone, idempotent.
func TestQuickClosureProperties(t *testing.T) {
	f := func(g fdSetGen, xRaw uint8) bool {
		set := g.Set
		x := relation.AttrSet(xRaw) & relation.FullSet(7)
		cl := set.Closure(x)
		if !x.SubsetOf(cl) {
			return false
		}
		if set.Closure(cl) != cl { // idempotent
			return false
		}
		// Monotone: (X ∪ {a})⁺ ⊇ X⁺.
		for a := 0; a < 7; a++ {
			if !cl.SubsetOf(set.Closure(x.Add(a))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickRelaxationImplication: any LHS extension of any FD of a set is
// implied by the set (the premise of the paper's repair space S(Σ)).
func TestQuickRelaxationImplication(t *testing.T) {
	f := func(g fdSetGen, extRaw uint8) bool {
		set := g.Set
		for _, fdep := range set {
			ext := relation.AttrSet(extRaw) & relation.FullSet(7)
			ext = ext.Diff(fdep.LHS).Remove(fdep.RHS)
			relaxed := FD{LHS: fdep.LHS.Union(ext), RHS: fdep.RHS}
			if !set.Implies(relaxed) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickViolatesSymmetric: Violates is symmetric in its tuple pair.
func TestQuickViolatesSymmetric(t *testing.T) {
	f := func(g fdSetGen, aRaw, bRaw [7]uint8) bool {
		mk := func(raw [7]uint8) relation.Tuple {
			tp := make(relation.Tuple, 7)
			for i, v := range raw {
				tp[i] = relation.Const(string(rune('a' + v%3)))
			}
			return tp
		}
		t1, t2 := mk(aRaw), mk(bRaw)
		for _, fdep := range g.Set {
			if fdep.Violates(t1, t2) != fdep.Violates(t2, t1) {
				return false
			}
			// Consistency with the difference-set characterization.
			if fdep.Violates(t1, t2) != fdep.ViolatedByDiff(t1.DiffSet(t2)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
