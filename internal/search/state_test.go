package search

import (
	"math/rand"
	"testing"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
)

func sigma1(t *testing.T) fd.Set {
	t.Helper()
	s := relation.MustSchema("A", "B", "C", "D", "E", "F")
	return fd.MustParseSet(s, "A->F")
}

func sigma2(t *testing.T) fd.Set {
	t.Helper()
	s := relation.MustSchema("A", "B", "C", "D")
	return fd.MustParseSet(s, "A->B; C->D")
}

// TestTreeEnumeratesFigure4 reproduces Figure 4(b): for R={A..F} and
// Σ={A→F}, the search tree spans exactly the 2⁴ subsets of {B,C,D,E}, each
// reached once.
func TestTreeEnumeratesFigure4(t *testing.T) {
	sigma := sigma1(t)
	seen := map[string]int{}
	var walk func(s State)
	var buf []State
	walk = func(s State) {
		seen[s.Key()]++
		for _, c := range s.Children(6, sigma, nil) {
			walk(c)
		}
	}
	_ = buf
	walk(Root(1))
	if len(seen) != 16 {
		t.Fatalf("tree visits %d states, want 16", len(seen))
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("state %s reached %d times, want exactly once", k, n)
		}
	}
}

// TestTreeEnumeratesFigure5 reproduces Figure 5: R={A,B,C,D}, Σ={A→B, C→D}.
// FD1 can take extensions from {C,D}, FD2 from {A,B}: 4×4 = 16 states.
func TestTreeEnumeratesFigure5(t *testing.T) {
	sigma := sigma2(t)
	count := 0
	var walk func(s State)
	walk = func(s State) {
		count++
		for _, c := range s.Children(4, sigma, nil) {
			walk(c)
		}
	}
	walk(Root(2))
	if count != 16 {
		t.Fatalf("tree visits %d states, want 16", count)
	}
}

// TestParentChildInverse checks the single-parent rule: every child's
// Parent is the state it was generated from.
func TestParentChildInverse(t *testing.T) {
	sigma := sigma2(t)
	var walk func(s State)
	walk = func(s State) {
		for _, c := range s.Children(4, sigma, nil) {
			if !c.Parent().Equal(s) {
				t.Fatalf("Parent(%s) = %s, want %s", c, c.Parent(), s)
			}
			walk(c)
		}
	}
	walk(Root(2))
}

func TestRootParentIsRoot(t *testing.T) {
	r := Root(2)
	if !r.Parent().Equal(r) {
		t.Error("Parent of root should be root")
	}
}

func TestChildrenNeverTouchFDAttrs(t *testing.T) {
	sigma := sigma2(t)
	var walk func(s State)
	walk = func(s State) {
		for _, c := range s.Children(4, sigma, nil) {
			for i, f := range sigma {
				if c[i].Intersects(f.LHS.Add(f.RHS)) {
					t.Fatalf("state %s extends FD %d with its own attributes", c, i)
				}
			}
			walk(c)
		}
	}
	walk(Root(2))
}

// extends reports whether s extends t: t[i] ⊆ s[i] for every i (the
// dominance notion used for pruning and minimality in Section 5.1).
func extends(s, t State) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if !t[i].SubsetOf(s[i]) {
			return false
		}
	}
	return true
}

func TestExtendsAndUnion(t *testing.T) {
	a := State{relation.NewAttrSet(2), 0}
	b := State{relation.NewAttrSet(2, 3), relation.NewAttrSet(1)}
	if !extends(b, a) {
		t.Error("b extends a")
	}
	if extends(a, b) {
		t.Error("a does not extend b")
	}
	if !extends(a, a) {
		t.Error("a extends itself (non-strict)")
	}
	if b.Union() != relation.NewAttrSet(1, 2, 3) {
		t.Errorf("Union = %v", b.Union())
	}
}

func TestApply(t *testing.T) {
	sigma := sigma2(t)
	s := State{relation.NewAttrSet(2), relation.NewAttrSet(0)}
	got := s.Apply(sigma)
	want := fd.Set{
		fd.MustNew(relation.NewAttrSet(0, 2), 1),
		fd.MustNew(relation.NewAttrSet(0, 2), 3),
	}
	if !got.Equal(want) {
		t.Errorf("Apply = %v, want %v", got, want)
	}
}

func TestApplyDropsOwnRHSDefensively(t *testing.T) {
	sigma := sigma2(t)
	// A state should never contain the FD's RHS, but Apply must not build
	// a trivial FD even if handed one.
	s := State{relation.NewAttrSet(1), 0}
	got := s.Apply(sigma)
	if got[0].LHS.Contains(1) {
		t.Errorf("Apply produced trivial FD %v", got[0])
	}
}

func TestStateKeyUniqueAcrossTree(t *testing.T) {
	sigma := sigma2(t)
	keys := map[string]State{}
	var walk func(s State)
	walk = func(s State) {
		k := s.Key()
		if prev, dup := keys[k]; dup && !prev.Equal(s) {
			t.Fatalf("key collision: %s vs %s", prev, s)
		}
		keys[k] = s
		for _, c := range s.Children(4, sigma, nil) {
			walk(c)
		}
	}
	walk(Root(2))
}

func TestStateStringRendering(t *testing.T) {
	s := State{0, relation.NewAttrSet(1)}
	if got := s.String(); got != "(φ, {1})" {
		t.Errorf("String = %q", got)
	}
}

// TestTreeCountRandom cross-checks the tree size against the closed form
// ∏ 2^(width-1-|LHS_i|) for random FD sets: every combination of per-FD
// extension subsets appears exactly once.
func TestTreeCountRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		width := 4 + rng.Intn(2)
		names := []string{"A", "B", "C", "D", "E"}[:width]
		schema := relation.MustSchema(names...)
		nfds := 1 + rng.Intn(2)
		var sigma fd.Set
		for len(sigma) < nfds {
			rhs := rng.Intn(width)
			lhs := relation.NewAttrSet((rhs + 1) % width)
			sigma = append(sigma, fd.MustNew(lhs, rhs))
		}
		_ = schema
		want := 1
		for _, f := range sigma {
			free := width - 1 - f.LHS.Len()
			want *= 1 << free
		}
		count := 0
		var walk func(s State)
		walk = func(s State) {
			count++
			for _, c := range s.Children(width, sigma, nil) {
				walk(c)
			}
		}
		walk(Root(len(sigma)))
		if count != want {
			t.Fatalf("trial %d: Σ=%v tree=%d want=%d", trial, sigma, count, want)
		}
	}
}
