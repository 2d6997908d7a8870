package discovery

import (
	"math/rand"
	"testing"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/testkit"
)

func TestDiscoverApproxIncludesExact(t *testing.T) {
	in := testkit.Build([]string{"A", "B", "C"}, [][]string{
		{"1", "x", "p"}, {"1", "x", "q"}, {"2", "y", "p"},
	})
	approx := mustMine(t, in, StreamOptions{MaxError: 0, MaxLHS: 2}, 0)
	exact := mustDiscover(t, in, StreamOptions{MaxLHS: 2}, 0)
	if len(approx) != len(exact) {
		t.Fatalf("zero-error approximate discovery found %d, exact found %d", len(approx), len(exact))
	}
	for i := range approx {
		if !approx[i].FD.Equal(exact[i]) {
			t.Errorf("mismatch at %d: %v vs %v", i, approx[i].FD, exact[i])
		}
		if approx[i].Error != 0 {
			t.Errorf("exact FD reported error %v", approx[i].Error)
		}
	}
}

func TestDiscoverApproxToleratesNoise(t *testing.T) {
	// A->B holds except for one dissenting tuple out of ten.
	rows := [][]string{}
	for i := 0; i < 9; i++ {
		rows = append(rows, []string{"k", "x", string(rune('0' + i))})
	}
	rows = append(rows, []string{"k", "ODD", "z"})
	in := testkit.Build([]string{"A", "B", "C"}, rows)

	strict := mustMine(t, in, StreamOptions{MaxError: 0, MaxLHS: 1, Attrs: relation.NewAttrSet(0, 1)}, 0)
	for _, f := range strict {
		if f.FD.Equal(fd.MustNew(relation.NewAttrSet(0), 1)) {
			t.Fatal("A->B does not hold exactly")
		}
	}
	loose := mustMine(t, in, StreamOptions{MaxError: 0.15, MaxLHS: 1, Attrs: relation.NewAttrSet(0, 1)}, 0)
	found := false
	for _, f := range loose {
		if f.FD.Equal(fd.MustNew(relation.NewAttrSet(0), 1)) {
			found = true
			if f.Error != 0.1 {
				t.Errorf("error = %v, want 0.1", f.Error)
			}
		}
	}
	if !found {
		t.Fatal("A->B within 15% error not discovered")
	}
}

func TestDiscoverApproxMinimality(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		in := testkit.RandomInstance(rng, 12, 4, 2)
		res := mustMine(t, in, StreamOptions{MaxError: 0.2, MaxLHS: 3}, 0)
		seen := map[string]float64{}
		for _, f := range res {
			seen[f.FD.String()] = f.Error
			// Error must be within threshold and consistent with Error().
			if f.Error > 0.2 {
				t.Fatalf("trial %d: %v exceeds threshold (%v)", trial, f.FD, f.Error)
			}
			want := float64(Error(in, f.FD)) / float64(in.N())
			if f.Error != want {
				t.Fatalf("trial %d: error mismatch for %v: %v vs %v", trial, f.FD, f.Error, want)
			}
			// No reported FD has a reported subset-LHS FD with same RHS.
			for _, g := range res {
				if g.FD.RHS == f.FD.RHS && g.FD.LHS != f.FD.LHS && g.FD.LHS.SubsetOf(f.FD.LHS) {
					t.Fatalf("trial %d: non-minimal %v reported alongside %v", trial, f.FD, g.FD)
				}
			}
		}
	}
}
