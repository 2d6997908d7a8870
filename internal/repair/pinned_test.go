package repair

import (
	"math/rand"
	"slices"
	"testing"

	"relatrust/internal/conflict"
	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/testkit"
)

func TestPinnedCellsAreNeverChanged(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		width := 4
		in := testkit.RandomInstance(rng, 12, width, 2)
		sigma := testkit.RandomFDs(rng, width, 1, 2)
		// Pin a random sample of cells.
		pinned := map[relation.CellRef]bool{}
		for i := 0; i < 6; i++ {
			pinned[relation.CellRef{Tuple: rng.Intn(12), Attr: rng.Intn(width)}] = true
		}
		rep, err := RepairDataPinned(in, sigma, pinned, int64(trial), nil)
		if err != nil {
			continue // infeasible pinnings are legitimate
		}
		if !sigma.SatisfiedBy(rep.Instance()) {
			t.Fatalf("trial %d: pinned repair violates Σ", trial)
		}
		for _, c := range rep.Changed {
			if pinned[c] {
				t.Fatalf("trial %d: pinned cell %v was changed", trial, c)
			}
		}
	}
}

func TestPinnedForcesAlternativeRepair(t *testing.T) {
	// A->B violated by (t0, t1). Pinning every cell of t1 forces the
	// repair to touch only t0 — wherever the cover put the pair.
	in := testkit.Build([]string{"A", "B", "C"}, [][]string{
		{"1", "x", "c0"},
		{"1", "y", "c1"},
		{"2", "z", "c2"},
	})
	sigma := fd.MustParseSet(in.Schema, "A->B")
	pinned := map[relation.CellRef]bool{}
	for a := 0; a < 3; a++ {
		pinned[relation.CellRef{Tuple: 1, Attr: a}] = true
	}
	rep, err := RepairDataPinned(in, sigma, pinned, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sigma.SatisfiedBy(rep.Instance()) {
		t.Fatal("violates Σ")
	}
	for _, c := range rep.Changed {
		if c.Tuple == 1 {
			t.Fatalf("pinned tuple was modified: %v", c)
		}
	}
}

func TestPinnedInfeasibleDetected(t *testing.T) {
	// Both tuples fully pinned and in conflict: must error, not loop.
	in := testkit.Build([]string{"A", "B"}, [][]string{
		{"1", "x"}, {"1", "y"},
	})
	sigma := fd.MustParseSet(in.Schema, "A->B")
	pinned := map[relation.CellRef]bool{}
	for ti := 0; ti < 2; ti++ {
		for a := 0; a < 2; a++ {
			pinned[relation.CellRef{Tuple: ti, Attr: a}] = true
		}
	}
	if _, err := RepairDataPinned(in, sigma, pinned, 0, nil); err == nil {
		t.Fatal("fully-pinned conflicting pair must be infeasible")
	}
}

// TestPinnedNoPinsEquivalentToPlainRepair pins what the facade's
// RepairDataOnly relies on: with no pins, RepairDataPinned is RepairData
// over the root's 2-approximate cover byte for byte — same cover, same
// changed cells, same V-instance.
func TestPinnedNoPinsEquivalentToPlainRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		width := 3 + rng.Intn(3)
		in := testkit.RandomInstance(rng, 6+rng.Intn(12), width, 2+rng.Intn(2))
		sigma := testkit.RandomFDs(rng, width, 1+rng.Intn(3), 2)
		want, err := RepairData(in, sigma, conflict.New(in, sigma).Cover(nil), int64(trial), nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RepairDataPinned(in, sigma, nil, int64(trial), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Cover, want.Cover) || !slices.Equal(got.Changed, want.Changed) ||
			got.Instance().String() != want.Instance().String() {
			t.Fatalf("trial %d: pinned repair without pins differs from RepairData:\n%v %v\n%s\nwant %v %v\n%s",
				trial, got.Cover, got.Changed, got.Instance(), want.Cover, want.Changed, want.Instance())
		}
	}
}
