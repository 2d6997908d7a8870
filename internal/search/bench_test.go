package search

import (
	"context"
	"fmt"
	"testing"

	"relatrust/internal/conflict"
	"relatrust/internal/fd"
	"relatrust/internal/gen"
	"relatrust/internal/relation"
	"relatrust/internal/weights"
)

// gcSink keeps the benchmarked gc calls from being optimized away.
var gcSink float64

// censusWorkload builds the census-like benchmark workload: an n-row
// instance over the first width census attributes, generated clean under
// two FDs (seed 42), with a dataErr share of its cells perturbed, and the
// two FDs weakened at rate 0.34. It returns the dirty instance and the
// weakened FDs.
func censusWorkload(b *testing.B, width, n int, dataErr float64) (*relation.Instance, fd.Set) {
	b.Helper()
	spec := gen.SubSpec(gen.CensusSpec(), width)
	sigma := gen.TwoFDs(spec)
	const seed = 42
	clean, err := gen.Generate(spec, sigma, n, seed)
	if err != nil {
		b.Fatal(err)
	}
	dirty, err := gen.PerturbData(clean, sigma, dataErr, seed+1)
	if err != nil {
		b.Fatal(err)
	}
	weakened, err := gen.PerturbFDs(sigma, 0.34, seed+2)
	if err != nil {
		b.Fatal(err)
	}
	return dirty.Instance, weakened.Sigma
}

// BenchmarkHeuristicGC measures gc(S) — knapsack, difference-set pick and
// the Algorithm 3 recursion — over the root and its children at a fixed
// τ = δP/10, on the census-like n=10k workload of the root package's
// BenchmarkFDSearch (12-attribute census subset, two FDs weakened at rate
// 0.34, 1% dirty cells, seed 42). Weights are warmed before timing, so
// the numbers are the heuristic's own work.
func BenchmarkHeuristicGC(b *testing.B) {
	in, sigma := censusWorkload(b, 12, 10000, 0.01)
	s := NewSearcher(conflict.New(in, sigma), weights.NewDistinctCount(in), Options{Workers: 1})
	tau := s.DeltaPOriginal() / 10
	root := Root(len(s.An.Sigma))
	states := append([]State{root}, root.Children(in.Schema.Width(), s.An.Sigma, nil)...)
	for _, st := range states {
		s.h.gc(st, s.ds, tau)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range states {
			gcSink = s.h.gc(st, s.ds, tau)
		}
	}
	b.ReportMetric(float64(len(states)), "states/op")
}

// BenchmarkAblationHeuristicBudget sweeps the difference-set budget
// (maxDiffSets, 3 in production) on a census-like n=1500 workload
// (16-attribute census subset, two FDs weakened at rate 0.34, no dirty
// cells): larger budgets tighten gc(S) at higher per-state cost. The
// visited-states metric shows the pruning payoff.
func BenchmarkAblationHeuristicBudget(b *testing.B) {
	in, sigma := censusWorkload(b, 16, 1500, 0)
	for _, maxDs := range []int{1, 2, 3, 6} {
		b.Run(fmt.Sprintf("maxDiffSets=%d", maxDs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := NewSearcher(conflict.New(in, sigma), weights.NewDistinctCount(in), Options{})
				s.h.maxDs = maxDs
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
// difference-set multiplicities (capPerCluster, 50 in production) on the
// workload of BenchmarkAblationHeuristicBudget: smaller caps are cheaper
// but loosen the heuristic. Each iteration's searcher is built with the
// production cap and then given difference sets sampled at the swept cap,
// so the timings include one production-cap DiffSets call.
func BenchmarkAblationEdgeSampling(b *testing.B) {
	in, sigma := censusWorkload(b, 16, 1500, 0)
	for _, cap := range []int{5, 50, 500} {
		b.Run(fmt.Sprintf("capPerCluster=%d", cap), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				an := conflict.New(in, sigma)
				s := NewSearcher(an, weights.NewDistinctCount(in), Options{})
				s.ds = an.DiffSets(cap)
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
