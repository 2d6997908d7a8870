package search

import (
	"context"
	"math/rand"
	"testing"

	"relatrust/internal/conflict"
	"relatrust/internal/relation"
	"relatrust/internal/testkit"
	"relatrust/internal/weights"
)

// TestFeasibilityFloorDetectsPermanentConflicts: two tuples identical
// except on the RHS can never be reconciled by an LHS extension, so τ
// below α·1 must return φ instantly (no state expansion).
func TestFeasibilityFloorDetectsPermanentConflicts(t *testing.T) {
	in := testkit.Build([]string{"A", "B", "C"}, [][]string{
		{"1", "x", "u"},
		{"1", "x", "v"}, // differs only on C
		{"2", "y", "w"},
	})
	sigma := testkit.RandomFDs(rand.New(rand.NewSource(1)), 3, 1, 1)
	sigma[0].LHS = relation.NewAttrSet(0)
	sigma[0].RHS = 2 // A->C
	s := NewSearcher(conflict.New(in, sigma), weights.AttrCount{}, Options{})
	if s.floor != 1 {
		t.Fatalf("floor = %d, want 1 (α=1, one permanent pair)", s.floor)
	}
	res, err := s.Find(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatal("τ=0 must be infeasible")
	}
	// The floor path must not have expanded anything (instant φ).
	res2, err := s.Find(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res2 == nil {
		t.Fatal("τ=1 is feasible: repair the one pair by data")
	}
}

// TestFeasibilityFloorZeroWhenResolvable: if every conflicting pair also
// differs somewhere else, the floor is zero (full relaxation reaches zero
// violations).
func TestFeasibilityFloorZeroWhenResolvable(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	s := NewSearcher(conflict.New(in, sigma), weights.AttrCount{}, Options{})
	if s.floor != 0 {
		t.Fatalf("floor = %d, want 0 (all pairs of the paper example are resolvable)", s.floor)
	}
}

// TestFeasibilityFloorConsistentWithSearch: for random instances, Find(τ)
// returns φ exactly when τ < floor or the exhaustive search finds nothing
// — and never returns a repair below the floor.
func TestFeasibilityFloorConsistentWithSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 40; trial++ {
		in := testkit.RandomInstance(rng, 8, 4, 2)
		sigma := testkit.RandomFDs(rng, 4, 1+rng.Intn(2), 2)
		s := NewSearcher(conflict.New(in, sigma), weights.AttrCount{}, Options{})
		floor := s.floor
		for _, tau := range []int{0, 1, 2, floor - 1, floor, floor + 2} {
			if tau < 0 {
				continue
			}
			res, err := s.Find(context.Background(), tau)
			if err != nil {
				t.Fatal(err)
			}
			if tau < floor && res != nil {
				t.Fatalf("trial %d: repair found below the floor (τ=%d, floor=%d)", trial, tau, floor)
			}
			if res != nil && res.DeltaP > tau {
				t.Fatalf("trial %d: δP=%d exceeds τ=%d", trial, res.DeltaP, tau)
			}
		}
		// At τ = floor the search may or may not succeed (the floor is a
		// lower bound, not exact); at τ = δP(Σ,I) it always succeeds.
		res, err := s.Find(context.Background(), s.DeltaPOriginal())
		if err != nil {
			t.Fatal(err)
		}
		if res == nil {
			t.Fatalf("trial %d: τ=δP must admit the root repair", trial)
		}
	}
}

func TestMatchingSizeMatchesCoverCertificate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		in := testkit.RandomInstance(rng, 8, 4, 2)
		sigma := testkit.RandomFDs(rng, 4, 2, 2)
		a := conflict.New(in, sigma)
		m := a.MatchingSize(nil)
		edges := testkit.Edges(in, sigma)
		opt := testkit.MinVertexCover(edges)
		if m > opt {
			t.Fatalf("trial %d: matching %d exceeds minimum vertex cover %d", trial, m, opt)
		}
		if opt > 0 && m == 0 {
			t.Fatalf("trial %d: edges exist but matching is empty", trial)
		}
		if c := a.CoverSize(nil); c > 2*m {
			t.Fatalf("trial %d: cover %d exceeds 2·matching %d", trial, c, m)
		}
	}
}
