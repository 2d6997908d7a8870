package repair

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/session"
)

// SampleDataRepairs generates up to k distinct data repairs of in with
// respect to a fixed FD set, in the spirit of the paper's reference [3]
// ("Sampling the repairs of functional dependency violations", whose
// algorithm Repair_Data is a tuple-wise variant of): Algorithm 4's random
// tuple and attribute orders induce a distribution over repairs, and
// drawing several seeds exposes the genuinely different ways the
// violations can be resolved — useful when a human picks among suggested
// fixes. Repairs are deduplicated by their changed-cell signature
// (positions and values); the result is ordered by ascending change count,
// then deterministically.
//
// At most 8·k seeds are attempted, so fewer than k repairs are returned
// when the repair space is smaller than requested. A non-nil eng shares
// its warm analysis arenas and key tables (it must be bound to in); nil
// uses a private engine, shared by the draws. Cancelling ctx aborts
// between draws with context.Cause(ctx).
func SampleDataRepairs(ctx context.Context, in *relation.Instance, sigma fd.Set, k int, seed int64, eng *session.Engine) ([]*DataRepair, error) {
	if k <= 0 {
		return nil, fmt.Errorf("repair: sample size %d must be positive", k)
	}
	eng, err := session.For(eng, in)
	if err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	// One shared cover keeps the samples comparable: the variety comes
	// from the repair order, not from re-running the matching.
	cover := coverOf(eng, sigma, nil)

	seen := make(map[string]bool, k)
	var out []*DataRepair
	for try := 0; try < 8*k && len(out) < k; try++ {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		rep, err := repairFDs(eng, sigma, cover, nil, seed+int64(try))
		if err != nil {
			return nil, err
		}
		sig := repairSignature(rep)
		if seen[sig] {
			continue
		}
		seen[sig] = true
		out = append(out, rep)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].NumChanges() != out[j].NumChanges() {
			return out[i].NumChanges() < out[j].NumChanges()
		}
		return repairSignature(out[i]) < repairSignature(out[j])
	})
	return out, nil
}

// repairSignature canonicalizes a repair for deduplication: the sorted
// changed cells with their new values, with variables abstracted to "?" —
// two repairs differing only in variable identities are the same repair
// (V-instance semantics make variable names immaterial). Constants are
// quoted, so a constant "?" never reads as a variable and no value can
// spell out further cells.
func repairSignature(rep *DataRepair) string {
	cells := append([]relation.CellRef(nil), rep.Changed...)
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Tuple != cells[j].Tuple {
			return cells[i].Tuple < cells[j].Tuple
		}
		return cells[i].Attr < cells[j].Attr
	})
	var b strings.Builder
	for _, c := range cells {
		v := rep.Value(c)
		if v.IsVar() {
			fmt.Fprintf(&b, "%d:%d=?;", c.Tuple, c.Attr)
		} else {
			fmt.Fprintf(&b, "%d:%d=%q;", c.Tuple, c.Attr, v.Str())
		}
	}
	return b.String()
}
