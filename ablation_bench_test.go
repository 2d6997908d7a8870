package relatrust_test

// Ablation benchmarks for the design decisions documented in DESIGN.md:
// the A* heuristic's difference-set budget, the edge-sampling cap and the
// choice of weighting function. Each reports the figure of merit that
// motivates the chosen default.

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

// BenchmarkAblationHeuristicBudget sweeps MaxDiffSets: 0 disables the
// heuristic entirely (best-first), larger values tighten gc(S) at higher
// per-state cost. The visited-states metric shows the pruning payoff.
func BenchmarkAblationHeuristicBudget(b *testing.B) {
	w := ablationWorkload(b)
	for _, maxDs := range []int{1, 2, 3, 6} {
		b.Run(benchName("maxDiffSets", maxDs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				an := conflict.New(w.Dirty, w.SigmaD)
				s := search.NewSearcher(an, weights.NewDistinctCount(w.Dirty), search.Options{
					MaxDiffSets: maxDs,
				})
				res, err := s.Find(context.Background(), s.DeltaPOriginal()/100)
				if err != nil {
					b.Fatal(err)
				}
				if res != nil {
					b.ReportMetric(float64(res.Stats.Visited), "visited")
					b.ReportMetric(float64(res.Stats.GCCalls), "gc-calls")
				}
			}
		})
	}
}

// BenchmarkAblationEdgeSampling sweeps the per-cluster edge cap feeding
// difference-set multiplicities: smaller caps are cheaper but loosen the
// heuristic.
func BenchmarkAblationEdgeSampling(b *testing.B) {
	w := ablationWorkload(b)
	for _, cap := range []int{5, 50, 500} {
		b.Run(benchName("capPerCluster", cap), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				an := conflict.New(w.Dirty, w.SigmaD)
				s := search.NewSearcher(an, weights.NewDistinctCount(w.Dirty), search.Options{
					CapPerCluster: cap,
				})
				res, err := s.Find(context.Background(), s.DeltaPOriginal()/100)
				if err != nil {
					b.Fatal(err)
				}
				if res != nil {
					b.ReportMetric(float64(res.Stats.Visited), "visited")
				}
			}
		})
	}
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
				s := search.NewSearcher(an, mk(), search.DefaultOptions())
				if _, err := s.Find(context.Background(), s.DeltaPOriginal()/100); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf []byte
	for ; v > 0; v /= 10 {
		buf = append([]byte{byte('0' + v%10)}, buf...)
	}
	return string(buf)
}
