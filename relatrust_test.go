package relatrust_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"relatrust"
)

const zipCSV = `City,ZIP
A,1
A,2
B,3
`

func load(t *testing.T) (*relatrust.Instance, relatrust.FDSet) {
	t.Helper()
	in, err := relatrust.ReadCSV(strings.NewReader(zipCSV))
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := relatrust.ParseFDs(in.Schema, "City->ZIP")
	if err != nil {
		t.Fatal(err)
	}
	return in, sigma
}

// newRepairer builds a Repairer or fails the test.
func newRepairer(t *testing.T, in *relatrust.Instance, sigma relatrust.FDSet, opt relatrust.Options) *relatrust.Repairer {
	t.Helper()
	rp, err := relatrust.NewRepairer(in, sigma, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rp
}

func TestFacadeEndToEnd(t *testing.T) {
	in, sigma := load(t)
	if relatrust.Satisfies(in, sigma) {
		t.Fatal("fixture should violate the FD")
	}
	if got := len(relatrust.Violations(in, sigma, 0)); got != 1 {
		t.Fatalf("violations = %d, want 1", got)
	}
	rp := newRepairer(t, in, sigma, relatrust.Options{Seed: 1})
	dp, err := rp.MaxBudget(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if dp != 1 {
		t.Fatalf("MaxBudget = %d, want 1 (one cover tuple × α=1)", dp)
	}

	repairs := collect(t, rp)
	if len(repairs) == 0 {
		t.Fatal("no repairs suggested")
	}
	for _, r := range repairs {
		if !relatrust.Satisfies(r.Data.Instance(), r.Sigma) {
			t.Errorf("repair %v inconsistent", r)
		}
	}
	first := repairs[0]
	if first.FDCost != 0 || first.Data.NumChanges() != 1 {
		t.Errorf("first repair should be the pure data repair (1 change), got cost=%v changes=%d",
			first.FDCost, first.Data.NumChanges())
	}
}

func TestFacadeRepairWithBudget(t *testing.T) {
	in, sigma := load(t)
	rp := newRepairer(t, in, sigma, relatrust.Options{})
	// The two-attribute schema offers no attribute to append (City is the
	// LHS, ZIP the RHS), so τ=0 is infeasible: the paper's (φ, φ).
	r, err := rp.RepairWithBudget(context.Background(), 0)
	if !errors.Is(err, relatrust.ErrNoRepairInBudget) || r != nil {
		t.Fatalf("τ=0 on an unextendable FD: repair=%v err=%v, want nil and ErrNoRepairInBudget", r, err)
	}
	r, err = rp.RepairWithBudget(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r == nil || r.Data.NumChanges() > 1 {
		t.Fatalf("τ=1 repair broken: %+v", r)
	}
	if _, err := rp.RepairWithBudget(context.Background(), -1); err == nil {
		t.Error("negative τ must error")
	}
}

func TestFacadeRangeAndWeights(t *testing.T) {
	in, sigma := load(t)
	for _, w := range []relatrust.WeightFunc{
		relatrust.AttrCountWeights(),
		relatrust.DistinctCountWeights(in),
		relatrust.EntropyWeights(in),
	} {
		rp := newRepairer(t, in, sigma, relatrust.Options{Weights: w})
		n := 0
		for _, err := range rp.FrontierRange(context.Background(), 0, 1) {
			if err != nil {
				t.Fatalf("%T: %v", w, err)
			}
			n++
		}
		if n == 0 {
			t.Fatalf("%T: no repairs", w)
		}
	}
}

func TestFacadeBestFirstOption(t *testing.T) {
	in, sigma := load(t)
	ctx := context.Background()
	a, err := newRepairer(t, in, sigma, relatrust.Options{}).RepairWithBudget(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newRepairer(t, in, sigma, relatrust.Options{BestFirst: true}).RepairWithBudget(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.FDCost != b.FDCost {
		t.Errorf("A* and best-first disagree on the optimum: %v vs %v", a.FDCost, b.FDCost)
	}
	// Regression: Options{BestFirst: true} with every other knob at its
	// default used to be indistinguishable from a zero-value config and was
	// silently rewritten to A*. The engine is observable through GCCalls —
	// best-first never evaluates the heuristic, A* must.
	if b.Stats.GCCalls != 0 {
		t.Errorf("BestFirst repair reports %d gc calls; the A* heuristic ran", b.Stats.GCCalls)
	}
	if a.Stats.GCCalls == 0 {
		t.Error("default (A*) repair reports 0 gc calls; best-first ran instead")
	}
	// The knob must also be orthogonal to Workers (it used to flip the
	// algorithm depending on whether Workers was zero).
	for _, workers := range []int{1, 4} {
		c, err := newRepairer(t, in, sigma, relatrust.Options{BestFirst: true, Workers: workers}).RepairWithBudget(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if c.Stats.GCCalls != 0 {
			t.Errorf("BestFirst with Workers=%d reports %d gc calls; the A* heuristic ran", workers, c.Stats.GCCalls)
		}
	}
}

func TestFacadeSchemaConstruction(t *testing.T) {
	s, err := relatrust.NewSchema("A", "B")
	if err != nil {
		t.Fatal(err)
	}
	in := relatrust.NewInstance(s)
	if err := in.AppendConsts("1", "2"); err != nil {
		t.Fatal(err)
	}
	f, err := relatrust.ParseFD(s, "A->B")
	if err != nil {
		t.Fatal(err)
	}
	if !relatrust.Satisfies(in, relatrust.FDSet{f}) {
		t.Error("single tuple always satisfies")
	}
	var sb strings.Builder
	if err := relatrust.WriteCSV(&sb, in); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "A,B\n") {
		t.Errorf("CSV output %q", sb.String())
	}
}

// TestFacadeSharedSession: repeated facade calls through one
// Options.Session must return exactly what independent calls return —
// the shared engine reuses warm analysis arenas without changing any
// result — and sampling through the same session must stay valid.
func TestFacadeSharedSession(t *testing.T) {
	in, sigma := load(t)
	sess := relatrust.NewSession(in)
	shared := relatrust.Options{Seed: 1, Session: sess}

	ctx := context.Background()
	dpFresh, err := newRepairer(t, in, sigma, relatrust.Options{Seed: 1}).MaxBudget(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dpShared, err := newRepairer(t, in, sigma, shared).MaxBudget(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if dpFresh != dpShared {
		t.Fatalf("MaxBudget with shared session = %d, fresh = %d", dpShared, dpFresh)
	}

	fresh := collect(t, newRepairer(t, in, sigma, relatrust.Options{Seed: 1}))
	for round := 0; round < 3; round++ {
		got := collect(t, newRepairer(t, in, sigma, shared))
		if len(got) != len(fresh) {
			t.Fatalf("round %d: %d repairs via shared session, %d fresh", round, len(got), len(fresh))
		}
		for i := range got {
			if got[i].FDCost != fresh[i].FDCost || got[i].DeltaP != fresh[i].DeltaP ||
				got[i].Data.NumChanges() != fresh[i].Data.NumChanges() ||
				!got[i].Sigma.Equal(fresh[i].Sigma) {
				t.Fatalf("round %d repair %d diverges: shared %v, fresh %v", round, i, got[i], fresh[i])
			}
		}
	}

	samples, err := newRepairer(t, in, sigma, shared).Sample(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if !relatrust.Satisfies(s.Instance(), sigma) {
			t.Fatal("sampled repair via shared session violates Σ")
		}
	}
}
