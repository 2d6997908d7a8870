package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"relatrust/internal/baseline"
	"relatrust/internal/metrics"
	"relatrust/internal/repair"
	"relatrust/internal/weights"
)

// Fig7Point is one point of Figure 7: the combined F-score of the
// τ-constrained repair at one relative-trust level on one dataset.
type Fig7Point struct {
	Dataset  string
	TauR     float64
	Tau      int
	Quality  metrics.Quality
	Combined float64
}

// fig7Grid is the relative-trust sweep of the quality experiments.
var fig7Grid = []float64{0, 0.05, 0.10, 0.17, 0.25, 0.29, 0.40, 0.50, 0.75, 1.00}

// Figure7 regenerates Figure 7: for each of the four error-rate datasets,
// the combined F-score across the τr spectrum. One range search per
// dataset yields every distinct repair; grid points map onto them.
func Figure7(cfg Config) ([]Fig7Point, error) {
	cfg = cfg.withDefaults()
	spec, sigma := qualitySpec()
	n := cfg.tuples(1000)

	var out []Fig7Point
	for di, ds := range qualityDatasets {
		w, err := MakeWorkload(spec, sigma, n, ds.FDErr, ds.DataErr, cfg.Seed+int64(di)*100)
		if err != nil {
			return nil, fmt.Errorf("dataset %q: %w", ds.Name, err)
		}
		repairs, dp0, err := trustSpectrum(w, cfg)
		if err != nil {
			return nil, fmt.Errorf("dataset %q: %w", ds.Name, err)
		}
		for _, taur := range fig7Grid {
			tau := int(taur*float64(dp0) + 0.5)
			r := repairForTau(repairs, tau)
			if r == nil {
				continue // no relaxation fits this τ (possible at τr=0)
			}
			q, err := w.Evaluate(r)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig7Point{
				Dataset:  ds.Name,
				TauR:     taur,
				Tau:      tau,
				Quality:  q,
				Combined: q.CombinedF(),
			})
		}
	}
	return out, nil
}

// trustSpectrum runs one range search over the full τ interval and returns
// the distinct repairs ordered by increasing FD cost, plus δP(Σd, Id).
func trustSpectrum(w *Workload, cfg Config) ([]*repair.Repair, int, error) {
	s, err := w.Session(true, cfg.MaxVisited, cfg.Seed)
	if err != nil {
		return nil, 0, err
	}
	defer s.Close()
	dp0 := s.DeltaPOriginal()
	var repairs []*repair.Repair
	err = s.StreamRange(context.Background(), 0, dp0, func(r *repair.Repair) error {
		repairs = append(repairs, r)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return repairs, dp0, nil
}

// repairForTau selects the τ-constrained repair from a cost-ordered
// spectrum: the cheapest repair whose guaranteed data distance fits τ.
func repairForTau(repairs []*repair.Repair, tau int) *repair.Repair {
	for _, r := range repairs {
		if r.DeltaP <= tau {
			return r
		}
	}
	return nil
}

// FormatFigure7 renders the points as the paper's series, one line per
// (dataset, τr).
func FormatFigure7(points []Fig7Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %8s %6s %10s  %s\n", "dataset", "tau_r", "tau", "combined-F", "detail")
	for _, p := range points {
		fmt.Fprintf(&b, "%-18s %8s %6d %10.3f  %s\n",
			p.Dataset, fmtPct(p.TauR), p.Tau, p.Combined, p.Quality)
	}
	return b.String()
}

// Fig8Row is one row of Figure 8's table: the best quality a system
// achieves on one dataset across its parameter settings.
type Fig8Row struct {
	Dataset string
	System  string // "uniform-cost" or "relative-trust"
	BestAt  string // the winning parameter setting
	Quality metrics.Quality
}

// Figure8 regenerates Figure 8: for each dataset, the maximum combined
// F-score achievable by the uniform-cost baseline (over its cost-ratio
// sweep) and by the relative-trust algorithm (over the τr spectrum).
func Figure8(cfg Config) ([]Fig8Row, error) {
	cfg = cfg.withDefaults()
	spec, sigma := qualitySpec()
	n := cfg.tuples(1000)

	var out []Fig8Row
	for di, ds := range qualityDatasets {
		w, err := MakeWorkload(spec, sigma, n, ds.FDErr, ds.DataErr, cfg.Seed+int64(di)*100)
		if err != nil {
			return nil, err
		}

		// Uniform-cost baseline: best combined F over the ratio sweep.
		wfn := weights.NewDistinctCount(w.Dirty)
		bestQ := metrics.Quality{}
		bestF := -1.0
		bestCfg := ""
		for _, bc := range baseline.SweepConfigs(wfn, cfg.Seed) {
			// The baseline analyzes the same (instance, Σd) pair as the
			// trust spectrum below: every sweep point forks the workload
			// engine's one warm analysis.
			bc.Engine = w.Engine()
			res, err := baseline.Repair(w.Dirty, w.SigmaD, bc)
			if err != nil {
				return nil, err
			}
			appended, err := metrics.Appended(w.SigmaD, res.Sigma)
			if err != nil {
				return nil, err
			}
			q, err := metrics.Eval(w.Clean, w.Dirty, res.Data.Instance(), appended, w.Removed)
			if err != nil {
				return nil, err
			}
			if f := q.CombinedF(); f > bestF {
				bestF, bestQ = f, q
				bestCfg = fmt.Sprintf("cell/FD=%g", bc.CellCost/bc.FDCost)
			}
		}
		out = append(out, Fig8Row{Dataset: ds.Name, System: "uniform-cost", BestAt: bestCfg, Quality: bestQ})

		// Relative-trust: best combined F over the spectrum.
		repairs, dp0, err := trustSpectrum(w, cfg)
		if err != nil {
			return nil, err
		}
		bestQ, bestF, bestCfg = metrics.Quality{}, -1.0, ""
		for _, r := range repairs {
			q, err := w.Evaluate(r)
			if err != nil {
				return nil, err
			}
			if f := q.CombinedF(); f > bestF {
				bestF, bestQ = f, q
				bestCfg = fmt.Sprintf("tau_r=%s", fmtPct(float64(r.DeltaP)/float64(max(dp0, 1))))
			}
		}
		out = append(out, Fig8Row{Dataset: ds.Name, System: "relative-trust", BestAt: bestCfg, Quality: bestQ})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].System < out[j].System })
	return out, nil
}

// FormatFigure8 renders the table in the paper's column order.
func FormatFigure8(rows []Fig8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %-18s %6s %6s %7s %7s %10s  %s\n",
		"system", "dataset", "FD-P", "FD-R", "Data-P", "Data-R", "combined-F", "best at")
	for _, r := range rows {
		q := r.Quality
		fmt.Fprintf(&b, "%-15s %-18s %6.2f %6.2f %7.2f %7.2f %10.3f  %s\n",
			r.System, r.Dataset, q.FDPrecision, q.FDRecall,
			q.DataPrecision, q.DataRecall, q.CombinedF(), r.BestAt)
	}
	return b.String()
}
