package relatrust_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"relatrust"
	"relatrust/internal/testkit"
)

// randRowOps draws a mixed batch against a dataset of n rows and returns
// the expected row count after it. Values come from the same tiny domain
// testkit.RandomInstance draws from, so mutations both create and destroy
// violations.
func randRowOps(rng *rand.Rand, n, width, dom int) ([]relatrust.RowOp, int) {
	k := 1 + rng.Intn(5)
	ops := make([]relatrust.RowOp, 0, k)
	tuple := func() relatrust.Tuple {
		t := make(relatrust.Tuple, width)
		for a := range t {
			t[a] = relatrust.Const(fmt.Sprintf("v%d", rng.Intn(dom)))
		}
		return t
	}
	for i := 0; i < k; i++ {
		switch {
		case n == 0 || rng.Intn(3) == 0:
			ops = append(ops, relatrust.RowOp{Kind: relatrust.RowInsert, Tuple: tuple()})
			n++
		case rng.Intn(2) == 0:
			ops = append(ops, relatrust.RowOp{Kind: relatrust.RowUpdate, Row: rng.Intn(n), Tuple: tuple()})
		default:
			ops = append(ops, relatrust.RowOp{Kind: relatrust.RowDelete, Row: rng.Intn(n)})
			n--
		}
	}
	return ops, n
}

// frontierFingerprint renders a frontier stream into one comparable
// string: per point the FD set, costs, and the full repaired instance
// (every cell, variables included). Byte-equal fingerprints mean
// byte-equal frontiers.
func frontierFingerprint(t *testing.T, rp *relatrust.Repairer) string {
	t.Helper()
	out := ""
	for r, err := range rp.Frontier(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		out += fmt.Sprintf("tau=%d sigma=%s cost=%g deltap=%d changed=%v rows=%v\n",
			r.Tau, r.Sigma, r.FDCost, r.DeltaP, r.Data.Changed, r.Data.Instance().Tuples)
	}
	return out
}

// TestLiveDatasetFrontierMatchesFresh is the facade-level oracle: after a
// randomized mutation stream, a Repairer over the live dataset's snapshot
// (spliced analyses, memo-carrying evaluators, warm engine) must stream a
// frontier byte-identical to a Repairer built from scratch over a copy of
// the same rows.
func TestLiveDatasetFrontierMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const width, dom = 4, 2
	base := testkit.RandomInstance(rng, 40, width, dom)
	sigma := testkit.RandomFDs(rng, width, 2, 2)
	ds := relatrust.NewLiveDatasetAt(base, 1)

	// Warm the repair machinery so later snapshots carry spliced state
	// rather than rebuilding from scratch.
	{
		in, sess, _ := ds.Snapshot()
		rp, err := relatrust.NewRepairer(in, sigma, relatrust.Options{Seed: 7, Session: sess})
		if err != nil {
			t.Fatal(err)
		}
		frontierFingerprint(t, rp)
	}

	n := base.N()
	for round := 0; round < 6; round++ {
		ops, wantN := randRowOps(rng, n, width, dom)
		res, err := ds.Apply(ops, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.NewRows != wantN {
			t.Fatalf("round %d: NewRows = %d, want %d", round, res.NewRows, wantN)
		}
		n = wantN

		in, sess, gen := ds.Snapshot()
		live, err := relatrust.NewRepairer(in, sigma, relatrust.Options{Seed: 7, Session: sess})
		if err != nil {
			t.Fatal(err)
		}
		freshIn := in.Clone() // same rows, none of the live tier's state
		fresh, err := relatrust.NewRepairer(freshIn, sigma, relatrust.Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := frontierFingerprint(t, live), frontierFingerprint(t, fresh); got != want {
			t.Fatalf("round %d (generation %d): frontier over live snapshot diverged from fresh repairer\nlive:\n%s\nfresh:\n%s",
				round, gen, got, want)
		}
	}
	if st := ds.Stats(); st.MutationsApplied == 0 {
		t.Fatalf("no mutations recorded: %+v", st)
	}
}

// TestLiveDatasetSnapshotSurvivesMutations pins the facade's isolation
// contract: a Repairer built over a snapshot keeps streaming that
// generation's frontier — byte-identical to a from-scratch run over the
// old rows — while the dataset moves on underneath it.
func TestLiveDatasetSnapshotSurvivesMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const width, dom = 4, 2
	base := testkit.RandomInstance(rng, 40, width, dom)
	sigma := testkit.RandomFDs(rng, width, 2, 2)
	ds := relatrust.NewLiveDatasetAt(base, 1)

	oldIn, oldSess, oldGen := ds.Snapshot()
	oldCopy := oldIn.Clone()

	n := base.N()
	for round := 0; round < 5; round++ {
		ops, wantN := randRowOps(rng, n, width, dom)
		if _, err := ds.Apply(ops, nil); err != nil {
			t.Fatal(err)
		}
		n = wantN
	}
	if g := ds.Generation(); g == oldGen {
		t.Fatalf("generation did not advance")
	}

	pinned, err := relatrust.NewRepairer(oldIn, sigma, relatrust.Options{Seed: 3, Session: oldSess})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := relatrust.NewRepairer(oldCopy, sigma, relatrust.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := frontierFingerprint(t, pinned), frontierFingerprint(t, fresh); got != want {
		t.Fatalf("pinned snapshot drifted after later mutations\npinned:\n%s\nfresh:\n%s", got, want)
	}
}

// TestLiveDatasetProgressGeneration checks the generation flows from the
// snapshot's engine into every ProgressEvent.
func TestLiveDatasetProgressGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const width, dom = 3, 2
	base := testkit.RandomInstance(rng, 20, width, dom)
	sigma := testkit.RandomFDs(rng, width, 2, 2)
	ds := relatrust.NewLiveDatasetAt(base, 5)
	if _, err := ds.Apply([]relatrust.RowOp{{Kind: relatrust.RowDelete, Row: 0}}, nil); err != nil {
		t.Fatal(err)
	}

	in, sess, gen := ds.Snapshot()
	if gen != 6 {
		t.Fatalf("generation = %d, want 6", gen)
	}
	seen := 0
	rp, err := relatrust.NewRepairer(in, sigma, relatrust.Options{
		Seed:    1,
		Session: sess,
		Progress: func(ev relatrust.ProgressEvent) {
			seen++
			if ev.Generation != gen {
				t.Errorf("event %d: generation %d, want %d", seen, ev.Generation, gen)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	frontierFingerprint(t, rp)
	if seen == 0 {
		t.Fatalf("no progress events observed")
	}
}

// TestLiveDatasetRejectsBadBatch checks validation surfaces as
// ErrInvalidRowOp and leaves the dataset untouched.
func TestLiveDatasetRejectsBadBatch(t *testing.T) {
	in := testkit.Build([]string{"A", "B"}, [][]string{{"a", "b"}})
	ds := relatrust.NewLiveDataset(in)
	_, err := ds.Apply([]relatrust.RowOp{{Kind: relatrust.RowDelete, Row: 3}}, nil)
	if !errors.Is(err, relatrust.ErrInvalidRowOp) {
		t.Fatalf("err = %v, want ErrInvalidRowOp", err)
	}
	if ds.Generation() != 0 || ds.Rows().N() != 1 {
		t.Fatalf("rejected batch changed the dataset")
	}
}
