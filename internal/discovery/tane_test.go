package discovery

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/testkit"
)

func TestDiscoverSimple(t *testing.T) {
	// B is a function of A; C is independent.
	in := testkit.Build([]string{"A", "B", "C"}, [][]string{
		{"1", "x", "p"},
		{"1", "x", "q"},
		{"2", "y", "p"},
		{"2", "y", "q"},
		{"3", "x", "r"},
	})
	set := mustDiscover(t, in, StreamOptions{MaxLHS: 2}, 0)
	if !contains(set, fd.MustNew(relation.NewAttrSet(0), 1)) {
		t.Errorf("A->B not discovered: %v", set)
	}
	if contains(set, fd.MustNew(relation.NewAttrSet(0), 2)) {
		t.Errorf("A->C should not hold: %v", set)
	}
	// Every discovered FD actually holds.
	for _, f := range set {
		if !Holds(in, f) {
			t.Errorf("discovered FD %v does not hold", f)
		}
	}
}

func TestDiscoverMinimality(t *testing.T) {
	in := testkit.Build([]string{"A", "B", "C"}, [][]string{
		{"1", "u", "x"},
		{"1", "v", "x"},
		{"2", "u", "y"},
		{"2", "v", "y"},
	})
	// A->C holds; AB->C therefore must not be reported (non-minimal).
	set := mustDiscover(t, in, StreamOptions{MaxLHS: 2}, 0)
	for _, f := range set {
		if f.RHS == 2 && f.LHS.Len() > 1 && f.LHS.Contains(0) {
			t.Errorf("non-minimal FD reported: %v", f)
		}
	}
}

func TestDiscoverAgainstExhaustiveCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		in := testkit.RandomInstance(rng, 12, 4, 2)
		set := mustDiscover(t, in, StreamOptions{MaxLHS: 3}, 0)
		got := map[string]bool{}
		for _, f := range set {
			got[f.String()] = true
			if !Holds(in, f) {
				t.Fatalf("trial %d: %v reported but does not hold", trial, f)
			}
		}
		// Exhaustive: every minimal holding FD with |LHS| ≤ 3 is reported.
		for rhs := 0; rhs < 4; rhs++ {
			free := relation.FullSet(4).Remove(rhs)
			attrs := free.Attrs()
			for mask := 1; mask < 1<<len(attrs); mask++ {
				var lhs relation.AttrSet
				for b, a := range attrs {
					if mask&(1<<b) != 0 {
						lhs = lhs.Add(a)
					}
				}
				f := fd.MustNew(lhs, rhs)
				if !Holds(in, f) {
					continue
				}
				minimal := true
				for _, a := range lhs.Attrs() {
					if Holds(in, fd.MustNew(lhs.Remove(a), rhs)) {
						minimal = false
						break
					}
				}
				if minimal != got[f.String()] {
					t.Fatalf("trial %d: FD %v minimal=%v reported=%v\n%s",
						trial, f, minimal, got[f.String()], in)
				}
			}
		}
	}
}

func TestDiscoverRespectsAttrsRestriction(t *testing.T) {
	in := testkit.Build([]string{"A", "B", "C"}, [][]string{
		{"1", "x", "1"}, {"2", "y", "2"},
	})
	set := mustDiscover(t, in, StreamOptions{MaxLHS: 1, Attrs: relation.NewAttrSet(0, 1)}, 0)
	for _, f := range set {
		if f.Attrs().Contains(2) {
			t.Errorf("FD %v uses excluded attribute", f)
		}
	}
}

func TestDiscoverMaxResults(t *testing.T) {
	in := testkit.Build([]string{"A", "B", "C"}, [][]string{
		{"1", "1", "1"}, {"2", "2", "2"},
	})
	set := mustDiscover(t, in, StreamOptions{MaxLHS: 1}, 2)
	if len(set) != 2 {
		t.Errorf("MaxResults ignored: %d", len(set))
	}
}

func TestErrorCount(t *testing.T) {
	in := testkit.Build([]string{"A", "B"}, [][]string{
		{"1", "x"}, {"1", "x"}, {"1", "y"}, {"2", "z"},
	})
	f := fd.MustNew(relation.NewAttrSet(0), 1)
	if got := Error(in, f); got != 1 {
		t.Errorf("Error = %d, want 1 (one minority tuple in the A=1 group)", got)
	}
	if Holds(in, f) {
		t.Error("A->B does not hold")
	}
}

// errStopMining ends a mine run once maxResults FDs are collected.
var errStopMining = errors.New("max results reached")

// mine collects Stream the way the relatrust.Discoverer facade does: the
// first maxResults FDs in mining order (0 = all), sorted with fd.Compare.
func mine(in *relation.Instance, opt StreamOptions, maxResults int) ([]Found, error) {
	var out []Found
	err := Stream(context.Background(), in, opt, func(f Found) error {
		out = append(out, f)
		if maxResults > 0 && len(out) >= maxResults {
			return errStopMining
		}
		return nil
	})
	if err != nil && err != errStopMining {
		return nil, err
	}
	slices.SortFunc(out, func(a, b Found) int { return fd.Compare(a.FD, b.FD) })
	return out, nil
}

func mustMine(t *testing.T, in *relation.Instance, opt StreamOptions, maxResults int) []Found {
	t.Helper()
	found, err := mine(in, opt, maxResults)
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	return found
}

// mustDiscover is mustMine reduced to the FDs.
func mustDiscover(t *testing.T, in *relation.Instance, opt StreamOptions, maxResults int) fd.Set {
	t.Helper()
	var set fd.Set
	for _, f := range mustMine(t, in, opt, maxResults) {
		set = append(set, f.FD)
	}
	return set
}

func contains(set fd.Set, f fd.FD) bool {
	for _, g := range set {
		if g.Equal(f) {
			return true
		}
	}
	return false
}
