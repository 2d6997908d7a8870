package relatrust_test

// Tests for the context-first streaming facade: the Repairer handle, the
// Frontier iterator's batch-equivalence pin, cancellation behavior (prompt
// return, no goroutine leaks, engine hygiene), and the structured errors.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"relatrust"

	"relatrust/internal/experiments"
	"relatrust/internal/gen"
	"relatrust/internal/repair"
	"relatrust/internal/search"
	"relatrust/internal/testkit"
	"relatrust/internal/weights"
)

// multiCSV violates City->ZIP and City->State several times, giving a
// frontier with multiple trust levels.
const multiCSV = `City,ZIP,State
Springfield,62701,IL
Springfield,62701,IL
Springfield,97477,OR
Shelbyville,46176,IN
Shelbyville,46176,TN
`

func loadMulti(t *testing.T) (*relatrust.Instance, relatrust.FDSet) {
	t.Helper()
	in, err := relatrust.ReadCSV(strings.NewReader(multiCSV))
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := relatrust.ParseFDs(in.Schema, "City->ZIP; City->State")
	if err != nil {
		t.Fatal(err)
	}
	return in, sigma
}

// equalRepair compares everything except Stats (a streamed point snapshots
// the effort up to its finalization): FD-side bookkeeping, the changed
// cells, and the repaired values those cells received (variables compare by var-ness, V-instance semantics make
// their identities immaterial).
func equalRepair(a, b *relatrust.Repair) bool {
	if a.Tau != b.Tau || a.DeltaP != b.DeltaP || a.FDCost != b.FDCost ||
		!a.Sigma.Equal(b.Sigma) || a.Ext.Key() != b.Ext.Key() ||
		len(a.Data.Changed) != len(b.Data.Changed) {
		return false
	}
	for i := range a.Data.Changed {
		ca, cb := a.Data.Changed[i], b.Data.Changed[i]
		if ca != cb {
			return false
		}
		va := a.Data.Value(ca)
		vb := b.Data.Value(cb)
		if va.IsVar() != vb.IsVar() || (!va.IsVar() && !va.Equal(vb)) {
			return false
		}
	}
	return true
}

// TestFrontierMatchesRepeatedRun pins the stream collected from
// Frontier(ctx) against repeated single-τ runs of the internal layer
// (repair.Session.Run with the equivalent config), on a small CSV fixture
// and on a generated workload, sequential and parallel. At the τ each
// point was found under, the single run's repair has bit-identical FD
// cost and no smaller δP (equal-cost ties keep the smaller δP in the
// frontier); when it lands on the same extension it is the same repair,
// changed cells included.
func TestFrontierMatchesRepeatedRun(t *testing.T) {
	type fixture struct {
		name  string
		in    *relatrust.Instance
		sigma relatrust.FDSet
	}
	var fixtures []fixture

	in, sigma := loadMulti(t)
	fixtures = append(fixtures, fixture{"csv", in, sigma})

	spec := gen.SubSpec(gen.CensusSpec(), 10)
	w, err := experiments.MakeWorkload(spec, gen.TwoFDs(spec), 300, 0.34, 0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	fixtures = append(fixtures, fixture{"census", w.Dirty, w.SigmaD})

	for _, f := range fixtures {
		for _, workers := range []int{1, 4} {
			rp, err := relatrust.NewRepairer(f.in, f.sigma, relatrust.Options{Seed: 7, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			streamed := collect(t, rp)
			if len(streamed) == 0 {
				t.Fatalf("%s: empty frontier makes the pin vacuous", f.name)
			}
			cfg := repair.Config{
				Weights: weights.NewDistinctCount(f.in),
				Seed:    7,
				Search:  search.Options{Workers: workers},
			}
			for i, r := range streamed {
				s, err := repair.NewSession(f.in, f.sigma, cfg)
				if err != nil {
					t.Fatal(err)
				}
				single, err := s.Run(context.Background(), r.Tau)
				s.Close()
				if err != nil {
					t.Fatal(err)
				}
				if single == nil || single.FDCost != r.FDCost || single.DeltaP < r.DeltaP ||
					(single.Ext.Key() == r.Ext.Key() && !equalRepair(r, single)) {
					t.Fatalf("%s workers=%d: repair %d diverges:\n stream %v\n run    %v",
						f.name, workers, i, r, single)
				}
			}
		}
	}
}

// TestFrontierEarlyBreak: breaking out of the range loop stops the sweep
// cleanly — no error surfaces, goroutines return to baseline, and the
// Repairer still serves a complete follow-up sweep.
func TestFrontierEarlyBreak(t *testing.T) {
	in, sigma := loadMulti(t)
	rp, err := relatrust.NewRepairer(in, sigma, relatrust.Options{Seed: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	full := collect(t, rp)
	if len(full) < 2 {
		t.Fatalf("need a multi-point frontier, got %d", len(full))
	}

	baseline := runtime.NumGoroutine()
	got := 0
	for r, err := range rp.Frontier(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			t.Fatal("nil repair without error")
		}
		got++
		break
	}
	if got != 1 {
		t.Fatalf("broke after one repair but saw %d", got)
	}
	testkit.WaitGoroutineBaseline(t, baseline)

	again := collect(t, rp)
	if len(again) != len(full) {
		t.Fatalf("follow-up sweep returned %d repairs, want %d", len(again), len(full))
	}
	for i := range full {
		if !equalRepair(full[i], again[i]) {
			t.Fatalf("repair %d diverges after an abandoned sweep", i)
		}
	}
}

// TestFrontierCancelMidSweep is the facade half of the cancellation
// criterion: cancelling during iteration yields errors.Is(err,
// context.Canceled) as the final pair, goroutines drain, and a session
// engine used by the cancelled call still serves a correct follow-up.
func TestFrontierCancelMidSweep(t *testing.T) {
	in, sigma := loadMulti(t)
	sess := relatrust.NewSession(in)
	opt := relatrust.Options{Seed: 1, Workers: 4, Session: sess}

	rp, err := relatrust.NewRepairer(in, sigma, opt)
	if err != nil {
		t.Fatal(err)
	}
	full := collect(t, rp)
	if len(full) < 2 {
		t.Fatalf("need a multi-point frontier, got %d", len(full))
	}

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sawCancel bool
	var yielded int
	for r, err := range rp.Frontier(ctx) {
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			sawCancel = true
			continue
		}
		yielded++
		cancel()
		_ = r
	}
	if !sawCancel {
		t.Fatal("cancelled sweep ended without reporting context.Canceled")
	}
	if yielded >= len(full) {
		t.Fatalf("cancel was a no-op: all %d repairs yielded", yielded)
	}
	testkit.WaitGoroutineBaseline(t, baseline)

	// The shared session survived the cancelled sweep: a fresh Repairer on
	// the same session reproduces the full frontier.
	rp2, err := relatrust.NewRepairer(in, sigma, opt)
	if err != nil {
		t.Fatal(err)
	}
	again := collect(t, rp2)
	if len(again) != len(full) {
		t.Fatalf("post-cancel sweep returned %d repairs, want %d", len(again), len(full))
	}
	for i := range full {
		if !equalRepair(full[i], again[i]) {
			t.Fatalf("repair %d diverges after a cancelled sweep on the shared session", i)
		}
	}
}

// TestSampleCancel: a cancelled context aborts Sample, and the same
// Repairer samples normally afterwards.
func TestSampleCancel(t *testing.T) {
	in, sigma := loadMulti(t)
	rp, err := relatrust.NewRepairer(in, sigma, relatrust.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rp.Sample(ctx, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	samples, err := rp.Sample(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
}

// TestStructuredErrors: every documented failure mode is errors.Is-able,
// and the typed wrappers carry their payloads.
func TestStructuredErrors(t *testing.T) {
	in, sigma := loadMulti(t)

	if _, err := relatrust.NewRepairer(in, nil, relatrust.Options{}); !errors.Is(err, relatrust.ErrEmptyFDSet) {
		t.Errorf("empty Σ: err = %v, want ErrEmptyFDSet", err)
	}

	empty := relatrust.NewInstance(in.Schema)
	if _, err := relatrust.NewRepairer(empty, sigma, relatrust.Options{}); !errors.Is(err, relatrust.ErrEmptyInstance) {
		t.Errorf("empty instance: err = %v, want ErrEmptyInstance", err)
	}

	wide, err := relatrust.NewSchema("A", "B", "C", "D")
	if err != nil {
		t.Fatal(err)
	}
	badFD, err := relatrust.ParseFD(wide, "C->D")
	if err != nil {
		t.Fatal(err)
	}
	_, err = relatrust.NewRepairer(in, relatrust.FDSet{badFD}, relatrust.Options{})
	if !errors.Is(err, relatrust.ErrSchemaMismatch) {
		t.Errorf("out-of-schema FD: err = %v, want ErrSchemaMismatch", err)
	}
	var sm *relatrust.SchemaMismatchError
	if !errors.As(err, &sm) || sm.FD.RHS != badFD.RHS {
		t.Errorf("schema mismatch does not carry the FD: %v", err)
	}

	rp, err := relatrust.NewRepairer(in, sigma, relatrust.Options{MaxVisited: 1})
	if err != nil {
		t.Fatal(err)
	}
	// τ = δP−1 sits above the feasibility floor (so the search actually
	// runs) and below δP (so the root is not an immediate goal): the
	// one-visit cap must fire.
	dp, err := rp.MaxBudget(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, err = rp.RepairWithBudget(context.Background(), dp-1)
	if !errors.Is(err, relatrust.ErrMaxVisited) {
		t.Errorf("MaxVisited=1: err = %v, want ErrMaxVisited", err)
	}
	var mv *relatrust.MaxVisitedError
	if !errors.As(err, &mv) || mv.Stats.Visited != 1 {
		t.Errorf("MaxVisited error does not carry stats: %v", err)
	}

	// An unextendable two-attribute schema at τ=0 has no repair: the
	// handle reports ErrNoRepairInBudget with τ attached.
	two, err := relatrust.ReadCSV(strings.NewReader("City,ZIP\nA,1\nA,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	sig2, err := relatrust.ParseFDs(two.Schema, "City->ZIP")
	if err != nil {
		t.Fatal(err)
	}
	rp2, err := relatrust.NewRepairer(two, sig2, relatrust.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rp2.RepairWithBudget(context.Background(), 0)
	if !errors.Is(err, relatrust.ErrNoRepairInBudget) {
		t.Errorf("infeasible τ: err = %v, want ErrNoRepairInBudget", err)
	}
	var be *relatrust.BudgetError
	if !errors.As(err, &be) || be.Tau != 0 {
		t.Errorf("budget error does not carry τ: %v", err)
	}
}

// TestFrontierPreCancelled: iterating with an already-cancelled context
// yields exactly one (nil, context.Canceled) pair.
func TestFrontierPreCancelled(t *testing.T) {
	in, sigma := loadMulti(t)
	rp, err := relatrust.NewRepairer(in, sigma, relatrust.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var repairs, errs int
	for r, err := range rp.Frontier(ctx) {
		if err != nil {
			errs++
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			continue
		}
		_ = r
		repairs++
	}
	if repairs != 0 || errs != 1 {
		t.Fatalf("pre-cancelled frontier yielded %d repairs, %d errors", repairs, errs)
	}
}

func collect(t *testing.T, rp *relatrust.Repairer) []*relatrust.Repair {
	t.Helper()
	var out []*relatrust.Repair
	for r, err := range rp.Frontier(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

// TestSessionSharesWeightSource: the default weighting is a view over the
// session's one weight source, so a second sweep on the session — even
// through a second Repairer, or a weighting resolved by name — prices
// every extension from the memo the first sweep filled.
func TestSessionSharesWeightSource(t *testing.T) {
	in, sigma := loadMulti(t)
	sess := relatrust.NewSession(in)
	sweep := func(opt relatrust.Options) []*relatrust.Repair {
		t.Helper()
		opt.Session = sess
		rp, err := relatrust.NewRepairer(in, sigma, opt)
		if err != nil {
			t.Fatal(err)
		}
		var out []*relatrust.Repair
		for r, err := range rp.Frontier(context.Background()) {
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
		return out
	}
	first := sweep(relatrust.Options{})
	n := relatrust.WeightMemoLen(sess)
	if n == 0 {
		t.Fatal("the first sweep priced no extension through the session's source")
	}
	named, err := sess.Weights("distinct-count")
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []relatrust.Options{{}, {Weights: named, Workers: 2}} {
		again := sweep(opt)
		if got := relatrust.WeightMemoLen(sess); got != n {
			t.Fatalf("a repeated sweep grew the memo from %d to %d entries", n, got)
		}
		if len(again) != len(first) {
			t.Fatalf("repeated sweep returned %d points, want %d", len(again), len(first))
		}
		for i := range first {
			if !equalRepair(first[i], again[i]) {
				t.Fatalf("point %d differs on the warm source", i)
			}
		}
	}
}
