package report

import (
	"context"
	"strings"
	"testing"

	"relatrust/internal/repair"
	"relatrust/internal/testkit"
)

func spectrumFixture(t *testing.T) (*repair.Session, []*repair.Repair) {
	t.Helper()
	in, sigma := testkit.Paper4x4()
	s, err := repair.NewSession(in, sigma, repair.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var reps []*repair.Repair
	err = s.StreamRange(context.Background(), 0, s.DeltaPOriginal(), func(r *repair.Repair) error {
		reps = append(reps, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) == 0 {
		t.Fatal("no repairs")
	}
	return s, reps
}

func TestChangesListing(t *testing.T) {
	s, reps := spectrumFixture(t)
	first := reps[0] // pure data repair: has changes
	var b strings.Builder
	if err := Changes(&b, s.In, first, Options{}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "→") {
		t.Errorf("no change arrows in output:\n%s", out)
	}
}

func TestChangesCap(t *testing.T) {
	s, reps := spectrumFixture(t)
	first := reps[0]
	if first.Data.NumChanges() < 2 {
		t.Skip("fixture produced fewer than 2 changes")
	}
	var b strings.Builder
	if err := Changes(&b, s.In, first, Options{MaxCells: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "more changes") {
		t.Errorf("cap not applied:\n%s", b.String())
	}
}
