package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"relatrust/internal/gen"
	"relatrust/internal/repair"
	"relatrust/internal/search"
	"relatrust/internal/weights"
)

// PerfPoint is one measurement of a scalability experiment.
type PerfPoint struct {
	Algo    string // "A*" or "Best-First"
	X       int    // the swept quantity (tuples, attributes, or FDs)
	Seconds float64
	Visited int
	Found   bool
}

// runOne executes a single-τ repair search and reports effort. A nil
// result with Found=false means the search hit its MaxVisited guard — the
// paper's Best-First baseline similarly failed to finish within 24h on its
// larger settings.
func runOne(w *Workload, heuristic bool, taur float64, cfg Config) (PerfPoint, error) {
	s, err := w.Session(heuristic, cfg.MaxVisited, cfg.Seed)
	if err != nil {
		return PerfPoint{}, err
	}
	defer s.Close()
	tau := s.TauFromRelative(taur)
	start := time.Now()
	r, err := s.Run(context.Background(), tau)
	elapsed := time.Since(start).Seconds()
	name := "A*"
	if !heuristic {
		name = "Best-First"
	}
	p := PerfPoint{Algo: name, Seconds: elapsed}
	if err != nil {
		if errors.Is(err, search.ErrMaxVisited) {
			p.Visited = cfg.MaxVisited
			return p, nil // treated as "did not terminate"
		}
		return PerfPoint{}, err
	}
	if r != nil {
		p.Visited = r.Stats.Visited
		p.Found = true
	}
	return p, nil
}

// Figure9 regenerates Figure 9: running time and visited states versus the
// number of tuples, two FDs, τr = 1%, for A* and Best-First.
func Figure9(cfg Config) ([]PerfPoint, error) {
	cfg = cfg.withDefaults()
	spec := gen.SubSpec(gen.CensusSpec(), 12)
	sigma := gen.TwoFDs(spec)
	sizes := []int{500, 1000, 2000, 4000, 8000}

	var out []PerfPoint
	for _, base := range sizes {
		n := cfg.tuples(base)
		w, err := MakeWorkload(spec, sigma, n, 0.34, 0, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for _, heuristic := range []bool{true, false} {
			p, err := runOne(w, heuristic, 0.01, cfg)
			if err != nil {
				return nil, err
			}
			p.X = n
			out = append(out, p)
		}
	}
	return out, nil
}

// Figure10 regenerates Figure 10: running time versus the number of
// attributes (attributes are excluded from the relation as in the paper),
// two FDs, τr = 1%.
func Figure10(cfg Config) ([]PerfPoint, error) {
	cfg = cfg.withDefaults()
	widths := []int{10, 14, 18, 24, 30, 34}
	n := cfg.tuples(2000)

	var out []PerfPoint
	for _, width := range widths {
		spec := gen.SubSpec(gen.CensusSpec(), width)
		sigma := gen.TwoFDs(spec)
		w, err := MakeWorkload(spec, sigma, n, 0.34, 0, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for _, heuristic := range []bool{true, false} {
			p, err := runOne(w, heuristic, 0.01, cfg)
			if err != nil {
				return nil, err
			}
			p.X = width
			out = append(out, p)
		}
	}
	return out, nil
}

// Figure11 regenerates Figure 11: running time versus the number of FDs.
// As in the paper, a single FD is replicated to simulate larger Σ, and the
// Best-First baseline is expected to blow up quickly (the paper aborted it
// beyond 2 FDs after 24 hours; here the MaxVisited guard plays that role).
func Figure11(cfg Config) ([]PerfPoint, error) {
	cfg = cfg.withDefaults()
	spec := gen.SubSpec(gen.CensusSpec(), 12)
	base := gen.TwoFDs(spec)[0]
	n := cfg.tuples(1000)

	var out []PerfPoint
	for _, k := range []int{1, 2, 3, 4} {
		sigma := gen.ReplicatedFDs(base, k)
		w, err := MakeWorkload(spec, sigma, n, 0.34, 0, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for _, heuristic := range []bool{true, false} {
			if !heuristic && k > 2 {
				// Mirror the paper: Best-First did not terminate beyond
				// two FDs; skip instead of burning the benchmark budget.
				out = append(out, PerfPoint{Algo: "Best-First", X: k, Seconds: -1, Visited: -1})
				continue
			}
			p, err := runOne(w, heuristic, 0.01, cfg)
			if err != nil {
				return nil, err
			}
			p.X = k
			out = append(out, p)
		}
	}
	return out, nil
}

// Fig12Point is one measurement of Figure 12: search effort versus τr.
type Fig12Point struct {
	Algo    string
	TauR    float64
	Seconds float64
	Visited int
	Found   bool
}

// Figure12 regenerates Figure 12: running time and visited states across
// the relative-trust range, one badly-perturbed FD.
func Figure12(cfg Config) ([]Fig12Point, error) {
	cfg = cfg.withDefaults()
	spec, sigma := qualitySpec()
	n := cfg.tuples(1000)
	w, err := MakeWorkload(spec, sigma, n, 0.80, 0.01, cfg.Seed)
	if err != nil {
		return nil, err
	}
	taurs := []float64{0.10, 0.25, 0.40, 0.55, 0.70, 0.85, 0.99}
	var out []Fig12Point
	for _, taur := range taurs {
		for _, heuristic := range []bool{true, false} {
			p, err := runOne(w, heuristic, taur, cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig12Point{
				Algo: p.Algo, TauR: taur,
				Seconds: p.Seconds, Visited: p.Visited, Found: p.Found,
			})
		}
	}
	return out, nil
}

// Fig13Point is one measurement of Figure 13: multi-repair generation cost
// for a τr range, Range-Repair (Algorithm 6) versus Sampling-Repair.
type Fig13Point struct {
	Method   string
	MaxTauR  float64
	Seconds  float64
	NRepairs int
}

// Figure13 regenerates Figure 13: the running time of generating all
// repairs for τr ∈ [0, max], comparing the incremental range algorithm
// against independent searches at sampled τ values (step 1.7% as in the
// paper).
//
// Measurement note: both timed regions exclude conflict-analysis
// construction — Range-Repair's session is built before its timer, and
// the sampling runs draw warm analyses from the workload's shared engine
// (PR 3), so every per-τ session forks prebuilt clusters. This deviates
// from the paper's literal from-scratch baseline but keeps the comparison
// symmetric: what is timed is exactly the search effort the figure is
// about — one incremental range pass versus repeated independent
// searches.
func Figure13(cfg Config) ([]Fig13Point, error) {
	cfg = cfg.withDefaults()
	spec, sigma := qualitySpec()
	n := cfg.tuples(1000)
	w, err := MakeWorkload(spec, sigma, n, 0.50, 0.01, cfg.Seed)
	if err != nil {
		return nil, err
	}

	var out []Fig13Point
	for _, maxTauR := range []float64{0.10, 0.20, 0.30} {
		// Range-Repair: one incremental pass.
		s, err := w.Session(true, cfg.MaxVisited, cfg.Seed)
		if err != nil {
			return nil, err
		}
		tauHigh := s.TauFromRelative(maxTauR)
		start := time.Now()
		ranged := 0
		err = s.StreamRange(context.Background(), 0, tauHigh, func(*repair.Repair) error {
			ranged++
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, Fig13Point{
			Method: "Range-Repair", MaxTauR: maxTauR,
			Seconds: time.Since(start).Seconds(), NRepairs: ranged,
		})

		// Sampling-Repair: independent runs at τr = 0%, 1.7%, 3.4%, ….
		var taus []int
		for taur := 0.0; taur <= maxTauR+1e-9; taur += 0.017 {
			taus = append(taus, s.TauFromRelative(taur))
		}
		start = time.Now()
		sampled, err := repair.RunSampling(context.Background(), w.Dirty, w.SigmaD, taus, repairConfigOf(w, cfg))
		if err != nil {
			return nil, err
		}
		out = append(out, Fig13Point{
			Method: "Sampling-Repair", MaxTauR: maxTauR,
			Seconds: time.Since(start).Seconds(), NRepairs: len(sampled),
		})
	}
	return out, nil
}

// FormatPerf renders scalability measurements with a caption for X.
func FormatPerf(points []PerfPoint, xName string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %12s %10s %6s\n", "algorithm", xName, "seconds", "visited", "found")
	for _, p := range points {
		if p.Seconds < 0 {
			fmt.Fprintf(&b, "%-12s %8d %12s %10s %6s\n", p.Algo, p.X, "skipped", "-", "-")
			continue
		}
		fmt.Fprintf(&b, "%-12s %8d %12.4f %10d %6v\n", p.Algo, p.X, p.Seconds, p.Visited, p.Found)
	}
	return b.String()
}

// FormatFigure12 renders the τr sweep.
func FormatFigure12(points []Fig12Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %12s %10s %6s\n", "algorithm", "tau_r", "seconds", "visited", "found")
	for _, p := range points {
		fmt.Fprintf(&b, "%-12s %8s %12.4f %10d %6v\n", p.Algo, fmtPct(p.TauR), p.Seconds, p.Visited, p.Found)
	}
	return b.String()
}

// FormatFigure13 renders the multi-repair comparison.
func FormatFigure13(points []Fig13Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %12s %9s\n", "method", "max tau_r", "seconds", "repairs")
	for _, p := range points {
		fmt.Fprintf(&b, "%-16s %10s %12.4f %9d\n", p.Method, fmtPct(p.MaxTauR), p.Seconds, p.NRepairs)
	}
	return b.String()
}

// repairConfigOf mirrors Workload.Session's configuration for entry points
// that take a repair.Config directly.
func repairConfigOf(w *Workload, cfg Config) repair.Config {
	return repair.Config{
		Weights: weights.NewDistinctCount(w.Dirty),
		Search:  search.Options{MaxVisited: cfg.MaxVisited},
		Seed:    cfg.Seed,
		Engine:  w.Engine(),
	}
}
