package repair

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/session"
	"relatrust/internal/testkit"
)

// frontierFingerprint sweeps sigma's full frontier over in, through eng
// (nil: a private engine for the sweep), and renders every point: its Σ′,
// the changed cells with their new values, and the repaired V-instance.
func frontierFingerprint(in *relation.Instance, sigma fd.Set, eng *session.Engine) (string, error) {
	s, err := NewSession(in, sigma, Config{Seed: 1, Engine: eng})
	if err != nil {
		return "", err
	}
	defer s.Close()
	var b strings.Builder
	err = s.StreamRange(context.Background(), 0, s.DeltaPOriginal(), func(r *Repair) error {
		fmt.Fprintf(&b, "τ=%d Σ′=%s\n", r.Tau, r.Sigma.Format(in.Schema))
		for _, c := range r.Data.Changed {
			fmt.Fprintf(&b, "%d.%d=%s ", c.Tuple, c.Attr, r.Data.Value(c))
		}
		fmt.Fprintf(&b, "\n%s\n", r.Data.Instance())
		return nil
	})
	return b.String(), err
}

// chainedSigma returns a random Σ over width ≥ 4 attributes in which one
// FD's RHS sits inside another's LHS, so a rewritten tuple can copy an RHS
// value that moves it into an LHS group no source row holds.
func chainedSigma(rng *rand.Rand, width int) fd.Set {
	a := rng.Perm(width)
	inner := fd.MustNew(relation.NewAttrSet(a[0]), a[1])
	outer := fd.MustNew(relation.NewAttrSet(a[1], a[2]), a[3])
	sigma := fd.Set{outer, inner}
	if width > 4 && rng.Intn(2) == 0 {
		sigma = append(sigma, fd.MustNew(relation.NewAttrSet(a[3]), a[4]))
	}
	return sigma
}

// TestFrontierIdenticalAcrossKeyTableCaches sweeps full frontiers twice
// through one engine — the second sweep keys every point by tables the
// first built — and once through a fresh engine, on constant instances and
// on V-instances, and asserts the three sweeps render byte-identically.
func TestFrontierIdenticalAcrossKeyTableCaches(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 40; trial++ {
		width := 4 + rng.Intn(3)
		in := testkit.RandomInstance(rng, 12+rng.Intn(20), width, 2+rng.Intn(2))
		if trial%2 == 1 {
			// A V-instance: the repair of the instance under another Σ.
			first, err := RepairDataPinned(in, testkit.RandomFDs(rng, width, 1+rng.Intn(3), 2), nil, int64(trial), nil)
			if err != nil {
				t.Fatalf("trial %d: first repair: %v", trial, err)
			}
			in = first.Instance()
		}
		sigma := chainedSigma(rng, width)
		eng := session.New(in)
		var got [3]string
		for i, e := range []*session.Engine{eng, eng, nil} {
			fp, err := frontierFingerprint(in, sigma, e)
			if err != nil {
				t.Fatalf("trial %d sweep %d under %s: %v", trial, i, sigma.Format(in.Schema), err)
			}
			got[i] = fp
		}
		if got[0] != got[1] || got[0] != got[2] {
			t.Fatalf("trial %d under %s: sweeps differ\ncold engine:\n%s\nwarm engine:\n%s\nfresh engine:\n%s",
				trial, sigma.Format(in.Schema), got[0], got[1], got[2])
		}
	}
}

// TestConcurrentSweepsShareKeyTables sweeps one cold engine from two
// goroutines at once, so both race to build the same key tables, and
// asserts both sweeps match a sweep through a private engine.
func TestConcurrentSweepsShareKeyTables(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := relation.NewInstance(relation.MustSchema("Blk", "A", "B", "C", "D", "E"))
	for r := 0; r < 400; r++ {
		v := func(k int) string { return fmt.Sprintf("v%d", rng.Intn(k)) }
		if err := in.AppendConsts(fmt.Sprintf("b%d", r/4), v(2), v(2), v(3), v(3), v(3)); err != nil {
			t.Fatal(err)
		}
	}
	sigma := fd.MustParseSet(in.Schema, "Blk,A->B; B,C->D")
	want, err := frontierFingerprint(in, sigma, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := session.New(in)
	var got [2]string
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = frontierFingerprint(in, sigma, eng)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("sweep %d: %v", i, errs[i])
		}
		if got[i] != want {
			t.Errorf("sweep %d over the shared engine differs from a private sweep", i)
		}
	}
}

// TestConcurrentSweepsShareGoalCovers sweeps one engine from two
// goroutines at once, twice each, so both sessions fill and read the goal
// covers of the one evaluator the engine keeps for sigma, and asserts
// every sweep matches a sweep through a private engine.
func TestConcurrentSweepsShareGoalCovers(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	in := testkit.RandomInstance(rng, 80, 6, 3)
	sigma := chainedSigma(rng, 6)
	want, err := frontierFingerprint(in, sigma, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := session.New(in)
	s, err := NewSession(in, sigma, Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.Search.Decomp != eng.CoverEvaluator(sigma) {
		t.Fatal("a session does not use its engine's evaluator")
	}
	s.Close()
	var got [2][2]string
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range got[i] {
				if got[i][j], errs[i] = frontierFingerprint(in, sigma, eng); errs[i] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		for j, fp := range got[i] {
			if fp != want {
				t.Errorf("goroutine %d sweep %d over the shared engine differs from a private sweep", i, j)
			}
		}
	}
}
