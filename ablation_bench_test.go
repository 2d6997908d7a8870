package relatrust_test

// Ablation benchmark for the choice of weighting function. The heuristic's
// difference-set budget and edge-sampling cap are package constants of
// internal/search; their ablations live in that package's bench_test.go.

import (
	"context"
	"testing"

	"relatrust/internal/conflict"
	"relatrust/internal/experiments"
	"relatrust/internal/gen"
	"relatrust/internal/search"
	"relatrust/internal/weights"
)

// ablationWorkload is a mid-size FD-perturbed workload where the search
// has real work to do.
func ablationWorkload(b *testing.B) *experiments.Workload {
	b.Helper()
	spec := gen.SubSpec(gen.CensusSpec(), 16)
	sigma := gen.TwoFDs(spec)
	w, err := experiments.MakeWorkload(spec, sigma, 1500, 0.34, 0, 42)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkAblationWeights compares the weighting functions: attr-count is
// free to evaluate, distinct-count (the paper's choice) and entropy price
// informativeness but cost a scan per new attribute set.
func BenchmarkAblationWeights(b *testing.B) {
	w := ablationWorkload(b)
	builders := map[string]func() weights.Func{
		"attr-count":     func() weights.Func { return weights.AttrCount{} },
		"distinct-count": func() weights.Func { return weights.NewDistinctCount(w.Dirty) },
		"entropy":        func() weights.Func { return weights.NewEntropy(w.Dirty) },
	}
	for name, mk := range builders {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				an := conflict.New(w.Dirty, w.SigmaD)
				s := search.NewSearcher(an, mk(), search.Options{})
				if _, err := s.Find(context.Background(), s.DeltaPOriginal()/100); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
