package repair

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"relatrust/internal/conflict"
	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/session"
)

// TestRewriteAllocsIndependentOfCleanRows runs one data repair of a fixed
// cover beside n and 4n clean rows. The clean index and the output rows
// are flat arrays sized once, so the allocation count depends on the
// cover, never on how many rows stay clean. Over a warm engine, as at a
// frontier point, the bytes grow by less than 8 per clean row: the output
// copies no row headers, and only the clean index's int32 position column
// and RHS slots scale with n.
func TestRewriteAllocsIndependentOfCleanRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not asserted under the race detector")
	}
	const dirtyRows = 48
	build := func(clean int) (*relation.Instance, fd.Set, []int32) {
		rng := rand.New(rand.NewSource(5))
		in := relation.NewInstance(relation.MustSchema("A", "B", "C", "D", "E"))
		for i := 0; i < dirtyRows; i++ {
			in.AppendConsts(fmt.Sprintf("x%d", i/4), "y", fmt.Sprintf("c%d", rng.Intn(2)),
				fmt.Sprintf("z%d", i/6), fmt.Sprintf("e%d", rng.Intn(2)))
		}
		for i := 0; i < clean; i++ {
			a, b, d := i%97, i%13, i%50
			in.AppendConsts(fmt.Sprintf("a%d", a), fmt.Sprintf("b%d", b), fmt.Sprintf("c%d", (a*13+b)%7),
				fmt.Sprintf("d%d", d), fmt.Sprintf("e%d", d%3))
		}
		sigma := fd.MustParseSet(in.Schema, "A,B->C; D->E")
		return in, sigma, conflict.New(in, sigma).Cover(nil)
	}
	allocs := func(clean int) (float64, int) {
		in, sigma, cover := build(clean)
		for _, c := range cover {
			if int(c) >= dirtyRows {
				t.Fatalf("cover tuple %d outside the dirty rows", c)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := RepairData(in, sigma, cover, 3, nil); err != nil {
				t.Fatal(err)
			}
		}), len(cover)
	}
	// bytes is the mean heap bytes one repair allocates over an engine
	// whose key tables an earlier repair already built.
	bytes := func(clean int) float64 {
		in, sigma, cover := build(clean)
		eng := session.New(in)
		repairOnce := func() {
			if _, err := RepairData(in, sigma, cover, 3, eng); err != nil {
				t.Fatal(err)
			}
		}
		repairOnce()
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			repairOnce()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small, coverSmall := allocs(1000)
	large, coverLarge := allocs(4000)
	if coverSmall != coverLarge {
		t.Fatalf("cover changed with the clean rows: %d vs %d tuples", coverSmall, coverLarge)
	}
	t.Logf("allocs per repair: %v at 1000 clean rows, %v at 4000 (cover %d tuples)", small, large, coverSmall)
	if large > small {
		t.Errorf("allocations grow with the clean rows: %v at 1000, %v at 4000", small, large)
	}
	bSmall, bLarge := bytes(1000), bytes(4000)
	perRow := (bLarge - bSmall) / 3000
	t.Logf("bytes per warm repair: %.0f at 1000 clean rows, %.0f at 4000 (%.1f per added row)", bSmall, bLarge, perRow)
	if perRow >= 8 {
		t.Errorf("bytes grow by %.1f per clean row, want < 8: %.0f at 1000, %.0f at 4000", perRow, bSmall, bLarge)
	}
}
