package search

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"relatrust/internal/conflict"
	"relatrust/internal/testkit"
	"relatrust/internal/weights"
)

// checkSameResults asserts two result lists are identical: same goals in
// the same order, with bit-identical costs and matching cover statistics
// and (logical) search-effort stats.
func checkSameResults(t *testing.T, label string, seq, par []*Result) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("%s: reference found %d repairs, engine %d", label, len(seq), len(par))
	}
	for i := range seq {
		a, b := seq[i], par[i]
		if !a.State.Equal(b.State) {
			t.Fatalf("%s: repair %d state %s != %s", label, i, a.State, b.State)
		}
		if a.Cost != b.Cost { // bit-identical, not approximately equal
			t.Fatalf("%s: repair %d cost %v != %v", label, i, a.Cost, b.Cost)
		}
		if a.CoverSize != b.CoverSize || a.DeltaP != b.DeltaP {
			t.Fatalf("%s: repair %d cover %d/δP %d != %d/%d", label, i, a.CoverSize, a.DeltaP, b.CoverSize, b.DeltaP)
		}
		if !a.Sigma.Equal(b.Sigma) {
			t.Fatalf("%s: repair %d Σ' %v != %v", label, i, a.Sigma, b.Sigma)
		}
		if a.Stats.Visited != b.Stats.Visited || a.Stats.Generated != b.Stats.Generated ||
			a.Stats.GCCalls != b.Stats.GCCalls {
			t.Fatalf("%s: repair %d stats (visited %d, generated %d, gc %d) != (visited %d, generated %d, gc %d)",
				label, i, a.Stats.Visited, a.Stats.Generated, a.Stats.GCCalls,
				b.Stats.Visited, b.Stats.Generated, b.Stats.GCCalls)
		}
	}
}

// TestParallelMatchesSequential pins the engine's central guarantee on
// randomized instances: Find and FindRange return results — states,
// bit-identical costs, cover sizes, goal order, and effort stats —
// identical to the sequential reference (see reference_test.go) for every
// worker count in {1, 2, 4, 8}, for both A* and best-first, under the
// attr-count, distinct-count and entropy weightings.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 24; trial++ {
		width := 4 + rng.Intn(3)
		in := testkit.RandomInstance(rng, 10+rng.Intn(20), width, 2)
		sigma := testkit.RandomFDs(rng, width, 1+rng.Intn(2), 2)
		var w weights.Func = weights.AttrCount{}
		if trial%3 == 1 {
			w = weights.NewDistinctCount(in)
		} else if trial%3 == 2 {
			w = weights.NewEntropy(in)
		}
		for _, heuristic := range []bool{true, false} {
			ref := NewSearcher(conflict.New(in, sigma), w, Options{BestFirst: !heuristic})
			dp := ref.DeltaPOriginal()
			refRange := reference(ref, 0, dp)
			taus := []int{0, 1, dp / 2, dp}
			refFind := make([]*Result, len(taus))
			for i, tau := range taus {
				refFind[i] = referenceFind(ref, tau)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				label := fmt.Sprintf("trial %d %s workers=%d A*=%v", trial, w.Name(), workers, heuristic)
				s := NewSearcher(conflict.New(in, sigma), w, Options{BestFirst: !heuristic, Workers: workers})
				got, err := s.FindRange(context.Background(), 0, dp)
				if err != nil {
					t.Fatal(err)
				}
				checkSameResults(t, "FindRange "+label, refRange, got)

				for i, tau := range taus {
					r, err := s.Find(context.Background(), tau)
					if err != nil {
						t.Fatal(err)
					}
					if (refFind[i] == nil) != (r == nil) {
						t.Fatalf("%s τ=%d: reference %v, engine %v disagree on feasibility", label, tau, refFind[i], r)
					}
					if r != nil {
						checkSameResults(t, "Find "+label, []*Result{refFind[i]}, []*Result{r})
					}
				}
			}
		}
	}
}

// TestParallelMaxVisitedGuard: a parallel search must abort on the same
// visit budget as Workers: 1.
func TestParallelMaxVisitedGuard(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	s := NewSearcher(conflict.New(in, sigma), weights.AttrCount{}, Options{BestFirst: true, MaxVisited: 1, Workers: 4})
	if _, err := s.Find(context.Background(), 0); err == nil {
		t.Error("MaxVisited=1 should abort a τ=0 search that needs expansion")
	}
}

// TestParallelSearcherReuse: repeated Find calls on one parallel searcher
// must stay self-consistent (forks are pooled and recycled between runs).
func TestParallelSearcherReuse(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	s := NewSearcher(conflict.New(in, sigma), weights.AttrCount{}, Options{Workers: 4})
	ref, err := s.Find(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r, err := s.Find(context.Background(), 2)
		if err != nil {
			t.Fatal(err)
		}
		checkSameResults(t, "reuse", []*Result{ref}, []*Result{r})
	}
}
