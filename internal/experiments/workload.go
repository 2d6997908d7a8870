// Package experiments regenerates every figure of the paper's evaluation
// (Section 8): quality versus relative trust (Figures 7-8), scalability in
// tuples, attributes and FDs (Figures 9-11), the effect of τ (Figure 12),
// and multi-repair generation (Figure 13). The harnesses are shared by the
// cmd/experiments binary and the top-level benchmarks.
//
// Sizes are scaled down from the paper's (whose runs took up to tens of
// thousands of seconds on a 2006 SunFire); Config.Scale multiplies tuple
// counts for users who want to push closer to the original settings. The
// comparisons the figures make (who wins, how curves bend) are preserved.
package experiments

import (
	"fmt"

	"relatrust/internal/fd"
	"relatrust/internal/gen"
	"relatrust/internal/metrics"
	"relatrust/internal/relation"
	"relatrust/internal/repair"
	"relatrust/internal/search"
	"relatrust/internal/session"
	"relatrust/internal/weights"
)

// Config tunes the experiment harnesses.
type Config struct {
	// Scale multiplies every tuple count (default 1: the scaled-down
	// defaults; the paper's sizes correspond to roughly Scale 4-10).
	Scale float64
	// Seed makes runs reproducible.
	Seed int64
	// MaxVisited guards the slow baseline searches (0 = default).
	MaxVisited int
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.MaxVisited <= 0 {
		c.MaxVisited = 2_000_000
	}
	return c
}

func (c Config) tuples(base int) int {
	n := int(float64(base) * c.Scale)
	if n < 10 {
		n = 10
	}
	return n
}

// Workload is one perturbation experiment: clean data and FDs, their
// perturbed counterparts, and the ground truth of both perturbations.
type Workload struct {
	Spec    gen.Spec
	Clean   *relation.Instance // Ic
	Dirty   *relation.Instance // Id
	SigmaC  fd.Set             // clean FDs
	SigmaD  fd.Set             // perturbed FDs (LHS attributes removed)
	Removed []relation.AttrSet // per FD, the removed attributes
	Cells   []relation.CellRef // injected erroneous cells

	eng *session.Engine // lazily built shared engine over Dirty
}

// Engine returns the workload's shared repair-session engine over the
// dirty instance, so every harness run against one workload — quality
// spectra, baseline sweeps, sampling baselines — forks the same warm
// conflict analysis instead of rebuilding it.
func (w *Workload) Engine() *session.Engine {
	if w.eng == nil {
		w.eng = session.New(w.Dirty)
	}
	return w.eng
}

// MakeWorkload generates a clean instance in which sigma holds exactly,
// then applies the paper's data and FD perturbations at the given rates.
func MakeWorkload(spec gen.Spec, sigma fd.Set, n int, fdErr, dataErr float64, seed int64) (*Workload, error) {
	clean, err := gen.Generate(spec, sigma, n, seed)
	if err != nil {
		return nil, err
	}
	dp, err := gen.PerturbData(clean, sigma, dataErr, seed+1)
	if err != nil {
		return nil, err
	}
	fp, err := gen.PerturbFDs(sigma, fdErr, seed+2)
	if err != nil {
		return nil, err
	}
	return &Workload{
		Spec:    spec,
		Clean:   clean,
		Dirty:   dp.Instance,
		SigmaC:  sigma,
		SigmaD:  fp.Sigma,
		Removed: fp.Removed,
		Cells:   dp.Cells,
	}, nil
}

// Session builds a repair session over the dirty instance and perturbed
// FDs, using the paper's experimental weighting (distinct values of the
// appended attribute set, measured on the dirty instance).
func (w *Workload) Session(heuristic bool, maxVisited int, seed int64) (*repair.Session, error) {
	return repair.NewSession(w.Dirty, w.SigmaD, repair.Config{
		Weights: weights.NewDistinctCount(w.Dirty),
		Search:  search.Options{BestFirst: !heuristic, MaxVisited: maxVisited},
		Seed:    seed,
		Engine:  w.Engine(),
	})
}

// Evaluate scores one repair against the workload's ground truth.
func (w *Workload) Evaluate(r *repair.Repair) (metrics.Quality, error) {
	appended, err := metrics.Appended(w.SigmaD, r.Sigma)
	if err != nil {
		return metrics.Quality{}, err
	}
	return metrics.Eval(w.Clean, w.Dirty, r.Data.Instance(), appended, w.Removed)
}

// qualityDatasets are the four (FD error, data error) combinations of
// Figures 7 and 8.
var qualityDatasets = []struct {
	Name           string
	FDErr, DataErr float64
}{
	{"80% FD, 0% data", 0.80, 0.00},
	{"50% FD, 5% data", 0.50, 0.05},
	{"30% FD, 5% data", 0.30, 0.05},
	{"0% FD, 5% data", 0.00, 0.05},
}

// qualitySpec returns the workload shape of the quality experiments: a
// census-like relation and one FD with six LHS attributes (the paper uses
// 5000 tuples of Census-Income and one discovered FD with 6 LHS
// attributes). The width is trimmed to 16 attributes so the search stays
// laptop-sized — see the package comment; the FD's structure matches.
func qualitySpec() (gen.Spec, fd.Set) {
	spec := gen.SubSpec(gen.CensusSpec(), 16)
	return spec, fd.Set{gen.PaperFD(spec)}
}

func fmtPct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
