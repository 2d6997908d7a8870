package search

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"relatrust/internal/conflict"
	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/testkit"
	"relatrust/internal/weights"
)

func paperSearcher(t *testing.T, heuristic bool) *Searcher {
	t.Helper()
	in, sigma := testkit.Paper4x4()
	a := conflict.New(in, sigma)
	return NewSearcher(a, weights.AttrCount{}, Options{BestFirst: !heuristic})
}

// TestPaperTau2 reproduces the Section 5 example: for τ=2, the minimal FD
// repairs are CA→B,C→D or DA→B,C→D, both with dist_c = 1.
func TestPaperTau2(t *testing.T) {
	for _, heuristic := range []bool{true, false} {
		s := paperSearcher(t, heuristic)
		res, err := s.Find(context.Background(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if res == nil {
			t.Fatal("no repair found")
		}
		if res.Cost != 1 {
			t.Errorf("heuristic=%v: cost = %v, want 1 (state %s)", heuristic, res.Cost, res.State)
		}
		if res.DeltaP > 2 {
			t.Errorf("heuristic=%v: δP = %d > τ", heuristic, res.DeltaP)
		}
		// The extension must be C or D appended to the first FD.
		y0 := res.State[0]
		if !(y0 == relation.NewAttrSet(2) || y0 == relation.NewAttrSet(3)) || !res.State[1].IsEmpty() {
			t.Errorf("heuristic=%v: unexpected repair %s", heuristic, res.State)
		}
	}
}

// TestPaperTauLarge: with τ = δP(Σ,I) the root is already a goal — trust
// the data fully, keep Σ unchanged.
func TestPaperTauLarge(t *testing.T) {
	s := paperSearcher(t, true)
	res, err := s.Find(context.Background(), s.DeltaPOriginal())
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Cost != 0 {
		t.Fatalf("want the zero-cost root repair, got %+v", res)
	}
	if !res.Sigma.Equal(s.An.Sigma) {
		t.Error("Σ must be unchanged at τ = δP(Σ, I)")
	}
}

// TestPaperTau0: τ=0 forbids data changes entirely, so the search must
// relax the FDs until no violations remain.
func TestPaperTau0(t *testing.T) {
	s := paperSearcher(t, true)
	res, err := s.Find(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("a zero-violation relaxation exists (append enough attributes)")
	}
	if res.CoverSize != 0 {
		t.Errorf("CoverSize = %d, want 0", res.CoverSize)
	}
	if s.An.HasViolation(res.State) {
		t.Error("returned FD set still has violations")
	}
}

// TestAStarMatchesBestFirst: best-first search is exhaustive by cost, so it
// returns the true minimum-cost goal; A* must match that cost on random
// instances across a range of τ, under every weighting the server ships.
func TestAStarMatchesBestFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		width := 4 + rng.Intn(2)
		in := testkit.RandomInstance(rng, 8+rng.Intn(6), width, 2)
		sigma := testkit.RandomFDs(rng, width, 1+rng.Intn(2), 2)
		for _, w := range []weights.Func{
			weights.AttrCount{}, weights.NewDistinctCount(in), weights.NewEntropy(in), weights.NewMDL(in),
		} {
			checkAStarMatchesBestFirst(t, trial, in, sigma, w)
		}
	}
}

func checkAStarMatchesBestFirst(t *testing.T, trial int, in *relation.Instance, sigma fd.Set, w weights.Func) {
	t.Helper()
	aStar := NewSearcher(conflict.New(in, sigma), w, Options{})
	bFirst := NewSearcher(conflict.New(in, sigma), w, Options{BestFirst: true})
	dp := aStar.DeltaPOriginal()
	for _, tau := range []int{0, 1, dp / 2, dp} {
		r1, err := aStar.Find(context.Background(), tau)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := bFirst.Find(context.Background(), tau)
		if err != nil {
			t.Fatal(err)
		}
		if (r1 == nil) != (r2 == nil) {
			t.Fatalf("trial %d %s τ=%d: A*=%v best-first=%v disagree on feasibility\nΣ=%v\n%s",
				trial, w.Name(), tau, r1, r2, sigma, in)
		}
		if r1 == nil {
			continue
		}
		if math.Abs(r1.Cost-r2.Cost) > 1e-9 {
			t.Fatalf("trial %d %s τ=%d: A* cost %v ≠ best-first cost %v (states %s vs %s)\nΣ=%v\n%s",
				trial, w.Name(), tau, r1.Cost, r2.Cost, r1.State, r2.State, sigma, in)
		}
		if r1.DeltaP > tau {
			t.Fatalf("trial %d %s: goal violates τ: δP=%d τ=%d", trial, w.Name(), r1.DeltaP, tau)
		}
	}
}

// TestAStarVisitsAtMostBestFirst: the admissible heuristic should never
// make A* visit more states than best-first on the same input.
func TestAStarVisitsAtMostBestFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	worse := 0
	for trial := 0; trial < 20; trial++ {
		in := testkit.RandomInstance(rng, 10, 5, 2)
		sigma := testkit.RandomFDs(rng, 5, 1, 2)
		aStar := NewSearcher(conflict.New(in, sigma), weights.AttrCount{}, Options{})
		bFirst := NewSearcher(conflict.New(in, sigma), weights.AttrCount{}, Options{BestFirst: true})
		r1, _ := aStar.Find(context.Background(), 0)
		r2, _ := bFirst.Find(context.Background(), 0)
		if r1 == nil || r2 == nil {
			continue
		}
		if r1.Stats.Visited > r2.Stats.Visited {
			worse++
		}
	}
	// Ties in cost ordering can make individual runs differ; a systematic
	// regression would flip most trials.
	if worse > 5 {
		t.Errorf("A* visited more states than best-first in %d/20 trials", worse)
	}
}

// TestFindRangeEnumeratesTrustSpectrum runs Algorithm 6 over the full τ
// range on the paper example and checks the Pareto staircase: costs
// strictly increase while δP strictly decreases.
func TestFindRangeEnumeratesTrustSpectrum(t *testing.T) {
	s := paperSearcher(t, true)
	res, err := s.FindRange(context.Background(), 0, s.DeltaPOriginal())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < 2 {
		t.Fatalf("expected several repairs across the spectrum, got %d", len(res))
	}
	if res[0].Cost != 0 {
		t.Errorf("first repair should be the zero-cost root, got %v", res[0].Cost)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Cost <= res[i-1].Cost {
			t.Errorf("costs not strictly increasing: %v then %v", res[i-1].Cost, res[i].Cost)
		}
		if res[i].DeltaP >= res[i-1].DeltaP {
			t.Errorf("δP not strictly decreasing: %d then %d", res[i-1].DeltaP, res[i].DeltaP)
		}
	}
	last := res[len(res)-1]
	if last.CoverSize != 0 {
		t.Errorf("the spectrum should end at a zero-violation repair, got cover %d", last.CoverSize)
	}
}

// TestFindRangeMatchesRepeatedFind: every repair from one range pass must
// equal the repair found by an independent single-τ search at its τ level.
func TestFindRangeMatchesRepeatedFind(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		in := testkit.RandomInstance(rng, 9, 4, 2)
		sigma := testkit.RandomFDs(rng, 4, 1, 2)
		s := NewSearcher(conflict.New(in, sigma), weights.AttrCount{}, Options{})
		dp := s.DeltaPOriginal()
		rangeRes, err := s.FindRange(context.Background(), 0, dp)
		if err != nil {
			t.Fatal(err)
		}
		tau := dp
		for _, r := range rangeRes {
			fresh := NewSearcher(conflict.New(in, sigma), weights.AttrCount{}, Options{})
			single, err := fresh.Find(context.Background(), tau)
			if err != nil {
				t.Fatal(err)
			}
			if single == nil {
				t.Fatalf("trial %d: single search at τ=%d found nothing but range did", trial, tau)
			}
			if math.Abs(single.Cost-r.Cost) > 1e-9 {
				t.Fatalf("trial %d τ=%d: range cost %v ≠ single cost %v", trial, tau, r.Cost, single.Cost)
			}
			tau = r.DeltaP - 1
		}
	}
}

func TestFindRangeRejectsInvertedRange(t *testing.T) {
	s := paperSearcher(t, true)
	if _, err := s.FindRange(context.Background(), 5, 1); err == nil {
		t.Error("inverted range must error")
	}
}

func TestMaxVisitedGuard(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	s := NewSearcher(conflict.New(in, sigma), weights.AttrCount{}, Options{BestFirst: true, MaxVisited: 1})
	if _, err := s.Find(context.Background(), 0); err == nil {
		t.Error("MaxVisited=1 should abort a τ=0 search that needs expansion")
	}
}

// TestInfeasibleTau: when a conflicting pair differs only on an FD's RHS,
// no LHS extension resolves it; τ=0 must yield φ.
func TestInfeasibleTau(t *testing.T) {
	in := testkit.Build([]string{"A", "B"}, [][]string{
		{"1", "x"}, {"1", "y"},
	})
	sigma := fd.MustParseSet(in.Schema, "A->B")
	s := NewSearcher(conflict.New(in, sigma), weights.AttrCount{}, Options{})
	res, err := s.Find(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("expected φ (no repair), got %s", res.State)
	}
	// With τ = 1 the pair can be repaired by data changes alone:
	// |C2opt| = 1 and α = 1.
	res, err = s.Find(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Cost != 0 {
		t.Fatalf("τ=1 should keep Σ and repair by data, got %+v", res)
	}
}

func TestDeltaPOriginalAndAlpha(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	s := NewSearcher(conflict.New(in, sigma), weights.AttrCount{}, DefaultOptions())
	if s.Alpha() != 2 {
		t.Errorf("α = %d, want min{3,2} = 2", s.Alpha())
	}
	if s.DeltaPOriginal() != 4 {
		t.Errorf("δP(Σ,I) = %d, want 4", s.DeltaPOriginal())
	}
	if s.DiffSetCount() != 3 {
		t.Errorf("difference sets = %d, want 3", s.DiffSetCount())
	}
}

// TestDistinctCountWeighting exercises the paper's experimental weighting
// end to end: appending a near-key attribute must cost more than a
// low-cardinality one, steering the search toward the cheap fix.
func TestDistinctCountWeighting(t *testing.T) {
	in := testkit.Build([]string{"A", "B", "Low", "High"}, [][]string{
		{"1", "x", "l0", "h0"},
		{"1", "y", "l1", "h1"},
		{"2", "x", "l0", "h2"},
		{"2", "y", "l1", "h3"},
		{"3", "x", "l0", "h4"},
		{"3", "y", "l1", "h5"},
	})
	sigma := fd.MustParseSet(in.Schema, "A->B")
	w := weights.NewDistinctCount(in)
	s := NewSearcher(conflict.New(in, sigma), w, Options{})
	res, err := s.Find(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("no repair")
	}
	if res.State[0] != relation.NewAttrSet(2) {
		t.Errorf("expected the low-cardinality attribute to be appended, got %s", res.State)
	}
}
