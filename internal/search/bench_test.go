package search

import (
	"testing"

	"relatrust/internal/conflict"
	"relatrust/internal/gen"
	"relatrust/internal/weights"
)

// gcSink keeps the benchmarked gc calls from being optimized away.
var gcSink float64

// BenchmarkHeuristicGC measures gc(S) — knapsack, difference-set pick and
// the Algorithm 3 recursion — over the root and its children at a fixed
// τ = δP/10, on the census-like n=10k workload of the root package's
// BenchmarkFDSearch (12-attribute census subset, two FDs weakened at rate
// 0.34, 1% dirty cells, seed 42). Weights are warmed before timing, so
// the numbers are the heuristic's own work.
func BenchmarkHeuristicGC(b *testing.B) {
	spec := gen.SubSpec(gen.CensusSpec(), 12)
	sigma := gen.TwoFDs(spec)
	const seed = 42
	clean, err := gen.Generate(spec, sigma, 10000, seed)
	if err != nil {
		b.Fatal(err)
	}
	dirty, err := gen.PerturbData(clean, sigma, 0.01, seed+1)
	if err != nil {
		b.Fatal(err)
	}
	weakened, err := gen.PerturbFDs(sigma, 0.34, seed+2)
	if err != nil {
		b.Fatal(err)
	}
	in := dirty.Instance
	s := NewSearcher(conflict.New(in, weakened.Sigma), weights.NewDistinctCount(in), Options{Workers: 1})
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
