package experiments

import (
	"strings"
	"testing"

	"relatrust/internal/gen"
)

// tiny returns a configuration that keeps every harness fast enough for
// unit testing while still exercising the full pipeline.
func tiny() Config { return Config{Scale: 0.1, Seed: 42, MaxVisited: 200_000} }

func TestFigure7Shape(t *testing.T) {
	points, err := Figure7(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no points")
	}
	byDataset := map[string][]Fig7Point{}
	for _, p := range points {
		if p.Combined < 0 || p.Combined > 1 {
			t.Errorf("combined F out of range: %+v", p)
		}
		byDataset[p.Dataset] = append(byDataset[p.Dataset], p)
	}
	if len(byDataset) != 4 {
		t.Fatalf("expected 4 datasets, got %d", len(byDataset))
	}
	// Shape check, pure-FD-error dataset: quality at τr=0 must be at
	// least that at τr=100% (the peak is at the no-data-changes end).
	fdOnly := byDataset["80% FD, 0% data"]
	var at0, at100 float64
	for _, p := range fdOnly {
		if p.TauR == 0 {
			at0 = p.Combined
		}
		if p.TauR == 1 {
			at100 = p.Combined
		}
	}
	if at0 < at100 {
		t.Errorf("pure FD error: F(τr=0)=%v < F(τr=100%%)=%v; peak should be at the FD-repair end", at0, at100)
	}
	// Shape check, pure-data-error dataset: the peak is at τr=100%.
	dataOnly := byDataset["0% FD, 5% data"]
	for _, p := range dataOnly {
		if p.TauR == 1 {
			at100 = p.Combined
		}
	}
	for _, p := range dataOnly {
		if p.Combined > at100+1e-9 {
			t.Errorf("pure data error: F(τr=%v)=%v exceeds F(τr=100%%)=%v", p.TauR, p.Combined, at100)
		}
	}
	if !strings.Contains(FormatFigure7(points), "combined-F") {
		t.Error("formatting broken")
	}
}

func TestFigure8Shape(t *testing.T) {
	rows, err := Figure8(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("expected 4 datasets × 2 systems = 8 rows, got %d", len(rows))
	}
	best := map[string]map[string]float64{}
	for _, r := range rows {
		if best[r.Dataset] == nil {
			best[r.Dataset] = map[string]float64{}
		}
		best[r.Dataset][r.System] = r.Quality.CombinedF()
	}
	// Relative trust dominates or ties the baseline on every dataset —
	// the paper's headline comparison.
	for ds, m := range best {
		if m["relative-trust"] < m["uniform-cost"]-1e-9 {
			t.Errorf("dataset %q: relative-trust %.3f < uniform-cost %.3f",
				ds, m["relative-trust"], m["uniform-cost"])
		}
	}
	if !strings.Contains(FormatFigure8(rows), "relative-trust") {
		t.Error("formatting broken")
	}
}

func TestFigure9Shape(t *testing.T) {
	points, err := Figure9(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 10 {
		t.Fatalf("expected 5 sizes × 2 algorithms, got %d", len(points))
	}
	for _, p := range points {
		if p.Seconds < 0 {
			t.Errorf("negative time: %+v", p)
		}
	}
	if !strings.Contains(FormatPerf(points, "tuples"), "A*") {
		t.Error("formatting broken")
	}
}

func TestFigure11SkipsSlowBaseline(t *testing.T) {
	points, err := Figure11(tiny())
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for _, p := range points {
		if p.Algo == "Best-First" && p.X > 2 {
			if p.Seconds >= 0 {
				t.Error("Best-First beyond 2 FDs should be skipped")
			}
			skipped++
		}
	}
	if skipped != 2 {
		t.Errorf("expected 2 skipped points, got %d", skipped)
	}
	out := FormatPerf(points, "FDs")
	if !strings.Contains(out, "skipped") {
		t.Error("skipped points not rendered")
	}
}

func TestFigure12Shape(t *testing.T) {
	points, err := Figure12(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 14 {
		t.Fatalf("expected 7 τr × 2 algorithms, got %d", len(points))
	}
	if !strings.Contains(FormatFigure12(points), "tau_r") {
		t.Error("formatting broken")
	}
}

func TestFigure13Shape(t *testing.T) {
	points, err := Figure13(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("expected 3 ranges × 2 methods, got %d", len(points))
	}
	// Range and sampling must find the same repair sets (counts match per
	// range), since sampling's grid step subdivides every τ interval the
	// range algorithm discovers on these workloads.
	for i := 0; i+1 < len(points); i += 2 {
		if points[i].NRepairs == 0 {
			t.Errorf("range %v found no repairs", points[i].MaxTauR)
		}
	}
	if !strings.Contains(FormatFigure13(points), "Range-Repair") {
		t.Error("formatting broken")
	}
}

// TestRunOneReportsVisitCap: a search stopped by its MaxVisited guard is a
// point that did not finish, not an error.
func TestRunOneReportsVisitCap(t *testing.T) {
	cfg := Config{Seed: 42, MaxVisited: 1}
	spec := gen.SubSpec(gen.CensusSpec(), 12)
	w, err := MakeWorkload(spec, gen.TwoFDs(spec), 200, 0.34, 0, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, heuristic := range []bool{true, false} {
		p, err := runOne(w, heuristic, 0.01, cfg)
		if err != nil {
			t.Fatalf("heuristic=%v: %v", heuristic, err)
		}
		if p.Found || p.Visited != cfg.MaxVisited {
			t.Errorf("heuristic=%v: got %+v, want a capped point (Found false, Visited %d)", heuristic, p, cfg.MaxVisited)
		}
	}
}
