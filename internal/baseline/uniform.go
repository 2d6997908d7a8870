// Package baseline re-implements the comparison system of the paper's
// Section 8.2: a unified-cost data-and-constraint repair in the style of
// Chiang & Miller (ICDE 2011, reference [5]). The original system is not
// available, so this is a faithful functional substitute along the two
// axes the paper's comparison exercises:
//
//   - one repair at one *implicit* trust level: a single cost model
//     aggregates cell changes and FD modifications, and the algorithm
//     returns the (heuristically) minimum-cost repair — there is no τ;
//   - a constrained FD-modification space: only single-attribute LHS
//     additions are considered, applied greedily while they reduce the
//     unified cost.
package baseline

import (
	"fmt"
	"math"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/repair"
	"relatrust/internal/session"
	"relatrust/internal/weights"
)

// Config sets the unified cost model: total cost = CellCost · (cells to
// change) + FDCost · Σ w(appended attribute). The ratio CellCost/FDCost is
// the implicit trust level; the paper's experiments sweep it and report
// the best achievable quality.
type Config struct {
	// CellCost prices one cell modification. Default 1.
	CellCost float64
	// FDCost scales the weighting of appended attributes. Default 1.
	FDCost float64
	// Weights prices appended attributes; nil means weights.AttrCount.
	Weights weights.Func
	// Seed drives the randomized data-repair order.
	Seed int64
	// Engine, when non-nil, supplies the shared repair-session engine
	// (bound to the repaired instance) the conflict analysis is acquired
	// from — Best and the experiment sweeps set it so every cost-ratio run
	// forks the same warm cluster arenas. Nil builds a private engine.
	Engine *session.Engine
}

func (c Config) withDefaults() Config {
	if c.CellCost == 0 {
		c.CellCost = 1
	}
	if c.FDCost == 0 {
		c.FDCost = 1
	}
	if c.Weights == nil {
		c.Weights = weights.AttrCount{}
	}
	return c
}

// Result is the single repair the unified-cost model selects.
type Result struct {
	Sigma    fd.Set
	Ext      []relation.AttrSet // appended attributes per FD
	Data     *repair.DataRepair
	Cost     float64 // unified cost of the selected repair
	FDCost   float64 // the FD component of Cost
	CellCost float64 // the data component of Cost
}

// Repair greedily minimizes the unified cost: starting from Σ unchanged,
// it repeatedly applies the single-attribute LHS addition with the best
// cost reduction (FD penalty paid, cell-change estimate δP reduced), stops
// at a local minimum, and materializes the data repair for the remaining
// violations.
func Repair(in *relation.Instance, sigma fd.Set, cfg Config) (*Result, error) {
	if len(sigma) == 0 {
		return nil, fmt.Errorf("baseline: empty FD set")
	}
	cfg = cfg.withDefaults()
	eng, err := session.For(cfg.Engine, in)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	an := eng.Acquire(sigma)
	defer eng.Release(an)
	width := in.Schema.Width()
	alpha := sigma.Alpha(width)

	ext := make([]relation.AttrSet, len(sigma))
	fdPenalty := 0.0
	unified := func(extCost float64) float64 {
		return cfg.CellCost*float64(alpha*an.CoverSize(ext)) + cfg.FDCost*extCost
	}
	cur := unified(fdPenalty)

	// |Σ|·|R| rounds are enough to add every attribute everywhere.
	for round := 0; round < len(sigma)*width; round++ {
		bestCost := cur
		bestFD, bestAttr := -1, -1
		bestPenalty := fdPenalty
		for i, f := range sigma {
			blocked := f.LHS.Union(ext[i]).Add(f.RHS)
			for a := 0; a < width; a++ {
				if blocked.Contains(a) {
					continue
				}
				ext[i] = ext[i].Add(a)
				// The paper's unified models price each addition
				// individually; the marginal weight of the single
				// attribute is the increment.
				penalty := fdPenalty + cfg.Weights.Weight(relation.NewAttrSet(a))
				c := unified(penalty)
				ext[i] = ext[i].Remove(a)
				if c < bestCost-1e-12 {
					bestCost, bestFD, bestAttr, bestPenalty = c, i, a, penalty
				}
			}
		}
		if bestFD < 0 {
			break // local minimum
		}
		ext[bestFD] = ext[bestFD].Add(bestAttr)
		fdPenalty = bestPenalty
		cur = bestCost
	}

	sigmaR := make(fd.Set, len(sigma))
	for i, f := range sigma {
		g, err := f.Extend(ext[i])
		if err != nil {
			return nil, err
		}
		sigmaR[i] = g
	}
	cover := an.Cover(ext)
	data, err := repair.RepairData(in, sigmaR, cover, cfg.Seed, eng)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Sigma:    sigmaR,
		Ext:      ext,
		Data:     data,
		FDCost:   cfg.FDCost * fdPenalty,
		CellCost: cfg.CellCost * float64(data.NumChanges()),
	}
	res.Cost = res.FDCost + res.CellCost
	return res, nil
}

// SweepConfigs returns the cost-ratio grid the experiments test, mirroring
// the paper's "we tested multiple parameter settings": cell/FD cost ratios
// spanning several orders of magnitude.
func SweepConfigs(w weights.Func, seed int64) []Config {
	ratios := []float64{0.01, 0.1, 0.5, 1, 2, 10, 100}
	out := make([]Config, 0, len(ratios))
	for _, r := range ratios {
		out = append(out, Config{CellCost: r, FDCost: 1, Weights: w, Seed: seed})
	}
	return out
}

// Best runs every config and returns the result scored best by the given
// function (higher is better), mirroring how the paper reports the
// baseline's best achievable quality. Configs without an engine share one
// engine across the sweep, so the conflict clusters are built once.
func Best(in *relation.Instance, sigma fd.Set, cfgs []Config, score func(*Result) float64) (*Result, error) {
	eng := session.New(in)
	var best *Result
	bestScore := math.Inf(-1)
	for _, cfg := range cfgs {
		if cfg.Engine == nil {
			cfg.Engine = eng
		}
		r, err := Repair(in, sigma, cfg)
		if err != nil {
			return nil, err
		}
		if s := score(r); s > bestScore {
			best, bestScore = r, s
		}
	}
	return best, nil
}
