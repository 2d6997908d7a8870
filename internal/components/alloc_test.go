package components

import (
	"math/rand"
	"testing"

	"relatrust/internal/conflict"
	"relatrust/internal/relation"
)

// TestWarmCoverQueriesDoNotAllocate pins the zero-allocation contract of
// the cover queries the search issues per state, once their scratch is
// warm: Analysis.CoverSize, and Evaluator.CoverSize on a memo hit and on a
// memo miss. The miss runs SubsetCover and stores its response in an
// existing table keyed by extension set; a multi-FD component's miss
// stores a string key, which allocates by design, so the miss is checked
// on a single-FD decomposition.
func TestWarmCoverQueriesDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not asserted under the race detector")
	}
	sh := shapes(rand.New(rand.NewSource(7)))[1] // many-small, two FDs
	width := sh.in.Schema.Width()
	ext := make([]relation.AttrSet, len(sh.sigma))
	for fi, f := range sh.sigma {
		ext[fi] = relation.FullSet(width).Remove(f.RHS)
	}
	allocs := func(name string, f func()) {
		t.Helper()
		f() // warm the scratch, the memo and the Affected cache
		if n := testing.AllocsPerRun(50, f); n != 0 {
			t.Errorf("%s: %v allocations per query, want 0", name, n)
		}
	}

	an := conflict.New(sh.in, sh.sigma)
	allocs("Analysis.CoverSize", func() { an.CoverSize(ext) })

	ev := NewEvaluator(an)
	single, multi := 0, 0
	for _, c := range ev.Affected(ext) {
		if len(ev.d.Comps[c].FDs) == 1 {
			single++
		} else {
			multi++
		}
	}
	if single == 0 || multi == 0 {
		t.Fatalf("want both memo kinds affected, got %d single-FD and %d multi-FD components", single, multi)
	}
	allocs("Evaluator.CoverSize memo hit", func() { ev.CoverSize(an, ext) })

	an1 := conflict.New(sh.in, sh.sigma[:1])
	ev1 := NewEvaluator(an1)
	miss := func() {
		for _, m := range ev1.memo1 {
			clear(m)
		}
		ev1.CoverSize(an1, ext[:1])
	}
	allocs("Evaluator.CoverSize memo miss", miss)
	before := ev1.Counters().Evals
	if miss(); ev1.Counters().Evals == before {
		t.Fatal("the memo-miss query evaluated no component")
	}
}
