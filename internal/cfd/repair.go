package cfd

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/repair"
	"relatrust/internal/search"
	"relatrust/internal/session"
	"relatrust/internal/weights"
)

// Repair is one suggested CFD-and-data repair.
type Repair struct {
	// Set is the relaxed CFD set (wildcard attributes appended to LHSs).
	Set Set
	// Ext is the per-CFD appended attribute vector.
	Ext []relation.AttrSet
	// FDCost is the weighting of the appended attributes.
	FDCost float64
	// Instance is the repaired V-instance satisfying Set. It shares its
	// unrewritten rows with the input and is read-only.
	Instance *relation.Instance
	// Changed lists the modified cells.
	Changed []relation.CellRef
	// Tau is the budget this repair was generated under.
	Tau int
}

// NumChanges returns |Δd(I, I′)|.
func (r *Repair) NumChanges() int { return len(r.Changed) }

// String summarizes the repair.
func (r *Repair) String() string {
	exts := make([]string, len(r.Ext))
	for i, y := range r.Ext {
		exts[i] = y.String()
	}
	return fmt.Sprintf("τ=%d: ext=[%s], cost=%.3g, changes=%d",
		r.Tau, strings.Join(exts, " "), r.FDCost, len(r.Changed))
}

// Config mirrors the FD repair configuration.
type Config struct {
	Weights weights.Func
	Seed    int64
	// Engine, when non-nil, supplies the shared repair-session engine
	// (bound to the repaired instance); repeated budget runs over the
	// same CFD set then fork one filtered analysis instead of rebuilding
	// it. Nil builds a private engine.
	Engine *session.Engine
}

// RepairWithBudget finds the minimal relaxation of the CFD set whose
// certified repair budget fits tau and materializes the data repair —
// Algorithm 1 of the paper lifted to CFDs (the paper's Section 10
// future-work direction). Single-tuple pattern violations cannot be
// resolved by any relaxation, so they charge the budget up front; pair
// violations go through the same conflict-cover search as plain FDs,
// restricted to pattern-matching tuples. The data repair runs Algorithm
// 4's shared loop (repair.Rewrite) over the cover and the single
// violators. Cancelling ctx aborts the relaxation search with
// context.Cause(ctx).
func RepairWithBudget(ctx context.Context, in *relation.Instance, set Set, tau int, cfg Config) (*Repair, error) {
	if len(set) == 0 {
		return nil, fmt.Errorf("cfd: empty CFD set")
	}
	if cfg.Weights == nil {
		cfg.Weights = weights.AttrCount{}
	}

	embedded := make(fd.Set, len(set))
	filters := make([]func(relation.Tuple) bool, len(set))
	for i, c := range set {
		embedded[i] = c.Embedded
		cc := c
		filters[i] = cc.Matches
	}
	eng, err := session.For(cfg.Engine, in)
	if err != nil {
		return nil, fmt.Errorf("cfd: %w", err)
	}
	// The pattern rendering identifies the filters' semantics: two CFD
	// sets with the same embedded FDs and the same patterns restrict the
	// analysis to the same tuples.
	an := eng.AcquireFiltered(embedded, filters, set.Format(in.Schema))
	defer eng.Release(an)

	singles := singleViolators(in, set)
	alpha := embedded.Alpha(in.Schema.Width())
	searchBudget := tau - alpha*len(singles)
	if searchBudget < 0 {
		return nil, nil // even relaxing everything cannot fit the budget
	}

	// The gc heuristic's difference-set reasoning is FD-shaped, so CFD
	// search runs the exhaustive-but-sound best-first mode.
	sr := search.NewSearcher(an, cfg.Weights, search.Options{BestFirst: true})
	res, err := sr.Find(ctx, searchBudget)
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, nil
	}

	relaxed := make(Set, len(set))
	for i, c := range set {
		rc, err := c.Extend(res.State[i].Diff(c.Embedded.LHS).Remove(c.Embedded.RHS))
		if err != nil {
			return nil, err
		}
		relaxed[i] = rc
	}

	cover := an.Cover(res.State)
	inst, changed, err := materialize(relaxed, cover, singles, cfg.Seed, eng)
	if err != nil {
		return nil, err
	}
	if len(changed) > tau {
		return nil, fmt.Errorf("cfd: internal error: %d changes exceed τ=%d", len(changed), tau)
	}
	return &Repair{
		Set:      relaxed,
		Ext:      res.State,
		FDCost:   res.Cost,
		Instance: inst,
		Changed:  changed,
		Tau:      tau,
	}, nil
}

// singleViolators returns the tuples violating a constant RHS pattern.
func singleViolators(in *relation.Instance, set Set) []int32 {
	seen := make(map[int32]bool)
	var out []int32
	for _, c := range set {
		if c.RHSPattern == "" {
			continue
		}
		for t := 0; t < in.N(); t++ {
			if !seen[int32(t)] && c.SingleViolation(in.Tuples[t]) {
				seen[int32(t)] = true
				out = append(out, int32(t))
			}
		}
	}
	return out
}

// materialize rewrites the cover tuples and the single violators of the
// engine's instance so the result satisfies the relaxed CFD set: Algorithm
// 4's shared loop (repair.Rewrite) with each CFD's LHS pattern as the
// constraint's tuple filter and its RHS pattern as the constant RHS.
// Rewrite verifies the result, so a cover or singles list that misses a
// violation is an error. The LHS key tables come from eng, so repeated
// repairs over one engine build each table once.
func materialize(set Set, cover, singles []int32, seed int64, eng *session.Engine) (*relation.Instance, []relation.CellRef, error) {
	cons := make([]repair.Constraint, len(set))
	for i, c := range set {
		cons[i] = repair.Constraint{FD: c.Embedded, Match: c.Matches, Const: c.RHSPattern}
	}
	dirty := slices.Concat(cover, singles)
	slices.Sort(dirty)
	d, err := repair.Rewrite(eng, cons, slices.Compact(dirty), nil, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("cfd: %w", err)
	}
	return d.Instance(), d.Changed, nil
}
