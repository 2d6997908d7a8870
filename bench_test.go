package relatrust_test

// One benchmark per evaluation figure of the paper (Figures 7-13 — the
// evaluation has no numbered tables; Figure 8 is its results table), plus
// micro-benchmarks for the hot paths. Each figure benchmark regenerates
// the figure's series through the same harness the cmd/experiments binary
// uses and reports headline numbers as custom metrics.
//
// Benchmark scale: the harnesses default to tuple counts scaled down from
// the paper's (Section 8 ran up to 60k tuples for tens of thousands of
// seconds); RELATRUST_BENCH_SCALE overrides the multiplier.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"relatrust"

	"relatrust/internal/conflict"
	"relatrust/internal/experiments"
	"relatrust/internal/fd"
	"relatrust/internal/gen"
	"relatrust/internal/relation"
	"relatrust/internal/repair"
	"relatrust/internal/search"
	"relatrust/internal/session"
	"relatrust/internal/weights"
)

func benchConfig() experiments.Config {
	scale := 0.25
	if s := os.Getenv("RELATRUST_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			scale = v
		}
	}
	return experiments.Config{Scale: scale, Seed: 42}
}

// BenchmarkFigure7 regenerates Figure 7: repair quality across the
// relative-trust spectrum on four error-rate datasets.
func BenchmarkFigure7(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		best := 0.0
		for _, p := range points {
			if p.Combined > best {
				best = p.Combined
			}
		}
		b.ReportMetric(best, "best-combined-F")
		b.ReportMetric(float64(len(points)), "points")
	}
}

// BenchmarkFigure8 regenerates Figure 8: best achievable quality,
// uniform-cost baseline versus relative-trust repairs.
func BenchmarkFigure8(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var rt, uc float64
		for _, r := range rows {
			f := r.Quality.CombinedF()
			if r.System == "relative-trust" {
				rt += f
			} else {
				uc += f
			}
		}
		b.ReportMetric(rt/4, "relative-trust-avg-F")
		b.ReportMetric(uc/4, "uniform-cost-avg-F")
	}
}

// BenchmarkFigure9 regenerates Figure 9: search time and visited states
// versus the number of tuples (A* vs Best-First).
func BenchmarkFigure9(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedup(b, points)
	}
}

// BenchmarkFigure10 regenerates Figure 10: search time versus the number
// of attributes.
func BenchmarkFigure10(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedup(b, points)
	}
}

// BenchmarkFigure11 regenerates Figure 11: search time versus the number
// of FDs (replicated FD).
func BenchmarkFigure11(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedup(b, points)
	}
}

// BenchmarkFigure12 regenerates Figure 12: the effect of τr on search
// effort.
func BenchmarkFigure12(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure12(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var astar, bfirst float64
		for _, p := range points {
			if p.Algo == "A*" {
				astar += p.Seconds
			} else {
				bfirst += p.Seconds
			}
		}
		b.ReportMetric(astar, "astar-total-sec")
		b.ReportMetric(bfirst, "bestfirst-total-sec")
	}
}

// BenchmarkFigure13 regenerates Figure 13: Range-Repair versus
// Sampling-Repair for multi-repair generation.
func BenchmarkFigure13(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure13(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var rangeSec, sampleSec float64
		for _, p := range points {
			if p.Method == "Range-Repair" {
				rangeSec += p.Seconds
			} else {
				sampleSec += p.Seconds
			}
		}
		b.ReportMetric(rangeSec, "range-total-sec")
		b.ReportMetric(sampleSec, "sampling-total-sec")
		if rangeSec > 0 {
			b.ReportMetric(sampleSec/rangeSec, "sampling/range")
		}
	}
}

func reportSpeedup(b *testing.B, points []experiments.PerfPoint) {
	var astar, bfirst float64
	for _, p := range points {
		if p.Seconds < 0 {
			continue
		}
		if p.Algo == "A*" {
			astar += p.Seconds
		} else {
			bfirst += p.Seconds
		}
	}
	b.ReportMetric(astar, "astar-total-sec")
	b.ReportMetric(bfirst, "bestfirst-total-sec")
	if astar > 0 {
		b.ReportMetric(bfirst/astar, "bestfirst/astar")
	}
}

// --- micro-benchmarks for the hot paths ---

func benchWorkload(b *testing.B, n int) (*relatrust.Instance, fd.Set) {
	b.Helper()
	spec := gen.SubSpec(gen.CensusSpec(), 12)
	sigma := gen.TwoFDs(spec)
	w, err := experiments.MakeWorkload(spec, sigma, n, 0.34, 0.01, 42)
	if err != nil {
		b.Fatal(err)
	}
	return w.Dirty, w.SigmaD
}

// BenchmarkConflictAnalysis measures building the violation clusters.
func BenchmarkConflictAnalysis(b *testing.B) {
	in, sigma := benchWorkload(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conflict.New(in, sigma)
	}
}

// BenchmarkCoverSize measures one vertex-cover query (the goal test the
// search runs per visited state).
func BenchmarkCoverSize(b *testing.B) {
	in, sigma := benchWorkload(b, 10000)
	a := conflict.New(in, sigma)
	a.CoverSize(nil) // warm the query scratch so steady state is measured
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.CoverSize(nil)
	}
}

// BenchmarkCoverVector measures the cover query for a non-trivial LHS
// extension vector — the exact shape of the per-state goal test A*-Repair
// issues up to MaxVisited times. Steady-state queries on a prebuilt
// Analysis must not allocate.
func BenchmarkCoverVector(b *testing.B) {
	in, sigma := benchWorkload(b, 10000)
	a := conflict.New(in, sigma)
	ext := make([]relation.AttrSet, len(sigma))
	for i, f := range sigma {
		ext[i] = f.LHS.Add(8 + i) // one appended attribute per FD, as mid-search states have
	}
	a.CoverSize(ext) // warm the query scratch so steady state is measured
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.CoverSize(ext)
	}
}

// BenchmarkFDSearch measures a complete A* FD-modification search at the
// n=10k workload, swept over the worker counts. The searcher (conflict
// analysis, difference sets, heuristic) is built once: the sweep isolates
// the search loop the Workers knob parallelizes. Results are bit-identical
// across the sweep; only wall-clock time differs. Each run reports its
// cover-query refinement steps per search as a custom metric.
func BenchmarkFDSearch(b *testing.B) {
	in, sigma := benchWorkload(b, 10000)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := search.DefaultOptions()
			opt.Workers = workers
			s := search.NewSearcher(conflict.New(in, sigma), weights.NewDistinctCount(in), opt)
			tau := s.DeltaPOriginal() / 10
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Find(context.Background(), tau); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := s.CoverCacheStats()
			b.ReportMetric(float64(st.RefineSteps)/float64(b.N), "refine-steps/op")
		})
	}
}

// benchBlockWorkload builds an n-row instance whose Blk,A->B violations
// stay inside 4-row blocks, so the conflict graph decomposes into ~n/4
// small components — the shape the component decomposition is built for
// (the census workload's FDs connect everything into one component).
func benchBlockWorkload(b *testing.B, n int) (*relatrust.Instance, fd.Set) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	in := relation.NewInstance(relation.MustSchema("Blk", "A", "B", "C", "D", "E", "F"))
	for t := 0; t < n; t++ {
		err := in.AppendConsts(
			fmt.Sprintf("b%d", t/4),
			fmt.Sprintf("v%d", rng.Intn(2)),
			fmt.Sprintf("v%d", rng.Intn(2)),
			fmt.Sprintf("v%d", rng.Intn(3)),
			fmt.Sprintf("v%d", rng.Intn(3)),
			fmt.Sprintf("v%d", rng.Intn(3)),
			fmt.Sprintf("v%d", rng.Intn(3)),
		)
		if err != nil {
			b.Fatal(err)
		}
	}
	return in, fd.Set{fd.MustNew(relation.NewAttrSet(0, 1), 2)}
}

// BenchmarkComponentSweep measures a complete A* search at n=100k,
// Workers fixed at 4, on two workload shapes: the census workload (whose
// FDs connect all tuples into one component — the decomposition's worst
// case, where only the relevant-attribute memo helps) and a blocked
// workload that splits into tens of thousands of small components (its
// best case).
func BenchmarkComponentSweep(b *testing.B) {
	cin, csigma := benchWorkload(b, 100000)
	bin, bsigma := benchBlockWorkload(b, 100000)
	workloads := []struct {
		name  string
		in    *relatrust.Instance
		sigma fd.Set
	}{{"census", cin, csigma}, {"blocked", bin, bsigma}}
	for _, w := range workloads {
		b.Run(w.name, func(b *testing.B) {
			opt := search.DefaultOptions()
			opt.Workers = 4
			s := search.NewSearcher(conflict.New(w.in, w.sigma), weights.NewDistinctCount(w.in), opt)
			dp := s.DeltaPOriginal()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The census search is a single-τ Find (a full-spectrum
				// sweep there takes minutes); the blocked workload's
				// frontier is cheap enough to sweep end to end.
				var err error
				if w.name == "census" {
					_, err = s.Find(context.Background(), dp/10)
				} else {
					_, err = s.FindRange(context.Background(), 0, dp)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := s.CoverCacheStats()
			b.ReportMetric(float64(st.RefineSteps)/float64(b.N), "refine-steps/op")
			cs := s.ComponentStats()
			b.ReportMetric(float64(cs.Components), "components")
			b.ReportMetric(float64(cs.LargestComponent), "largest-component-tuples")
			b.ReportMetric(float64(cs.ParallelEvals)/float64(b.N), "parallel-evals/op")
		})
	}
}

// BenchmarkComponentSweepXL runs the search on the blocked workload at
// n=1,000,000 — a scale at which a monolithic per-state cover query (a
// two-pass scan over every violation cluster) would make the sweep
// impractical. Gated behind RELATRUST_BENCH_XL=1; the point of the
// benchmark is that the sweep *completes*, and its headline numbers are
// recorded in BENCH_components.json.
func BenchmarkComponentSweepXL(b *testing.B) {
	if os.Getenv("RELATRUST_BENCH_XL") == "" {
		b.Skip("set RELATRUST_BENCH_XL=1 to run the 1M-tuple sweep")
	}
	in, sigma := benchBlockWorkload(b, 1000000)
	opt := search.DefaultOptions()
	opt.Workers = 4
	s := search.NewSearcher(conflict.New(in, sigma), weights.NewDistinctCount(in), opt)
	dp := s.DeltaPOriginal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.FindRange(context.Background(), 0, dp); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := s.CoverCacheStats()
	b.ReportMetric(float64(st.RefineSteps)/float64(b.N), "refine-steps/op")
	cs := s.ComponentStats()
	b.ReportMetric(float64(cs.Components), "components")
	b.ReportMetric(float64(cs.LargestComponent), "largest-component-tuples")
}

// BenchmarkSessionReuse measures acquiring a warm analysis from a session
// engine plus one cover query — the per-iteration cost Sampling-Repair and
// the baseline sweep pay after their first τ. Against the
// BenchmarkConflictAnalysis baseline (a from-scratch conflict.New of the
// same workload, ~dozens of allocs), a warm Acquire/Release cycle reuses
// the pooled fork scratch and allocates nothing.
func BenchmarkSessionReuse(b *testing.B) {
	in, sigma := benchWorkload(b, 10000)
	eng := session.New(in)
	a := eng.Acquire(sigma) // build the root and grow the pooled scratch
	a.CoverSize(nil)
	eng.Release(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := eng.Acquire(sigma)
		a.CoverSize(nil)
		eng.Release(a)
	}
}

// BenchmarkAnalysisFork measures forking a worker's analysis off a
// prebuilt one plus a cover query — the per-worker setup cost of the
// parallel search engine. With Release recycling scratch through the
// fork pool, the steady state allocates nothing.
func BenchmarkAnalysisFork(b *testing.B) {
	in, sigma := benchWorkload(b, 10000)
	a := conflict.New(in, sigma)
	f := a.Fork()
	f.CoverSize(nil) // grow the pooled scratch to the working-set size
	f.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := a.Fork()
		g.CoverSize(nil)
		g.Release()
	}
}

// BenchmarkRepairData measures materializing a data repair.
func BenchmarkRepairData(b *testing.B) {
	in, sigma := benchWorkload(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repair.RepairData(in, sigma, nil, int64(i), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuggestRepairs measures the full public-API pipeline — analyze,
// search the whole trust range, materialize every repair — swept over the
// search worker counts. n=2000 keeps one full-spectrum sweep around ten
// seconds on one core; the FD search dominates, so the Workers knob is
// visible end to end.
func BenchmarkSuggestRepairs(b *testing.B) {
	in, sigma := benchWorkload(b, 2000)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := relatrust.SuggestRepairs(in, sigma, relatrust.Options{Seed: 1, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
