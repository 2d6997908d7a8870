package search

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"relatrust/internal/conflict"
	"relatrust/internal/relation"
	"relatrust/internal/testkit"
	"relatrust/internal/weights"
)

// TestGCAdmissibility: under the additive attr-count weighting, gc(S)
// must never exceed the cost of the cheapest goal descending from S
// (Lemma 1) — at every state of the search tree, not just the root — and
// gc(S) = +Inf must mean no goal descends from S. Violations would break
// A* optimality silently, so this is the load-bearing property test for
// both heuristic halves (recursive + knapsack). The ground truth
// enumerates the whole tree with monolithic cover queries.
//
// The property is deliberately not asserted for the non-additive
// weightings (distinct-count, entropy, MDL): gc can exceed the subtree
// optimum there.
func TestGCAdmissibility(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	pairs := 0
	for trial := 0; trial < 80; trial++ {
		width := 4 + rng.Intn(3)
		in := testkit.RandomInstance(rng, 8+rng.Intn(8), width, 2)
		sigma := testkit.RandomFDs(rng, width, 1+rng.Intn(2), 2)

		s := NewSearcher(conflict.New(in, sigma), weights.AttrCount{}, Options{})
		tree := searchTree(s)
		dp := s.DeltaPOriginal()
		for tau := 0; tau <= dp; tau++ {
			// best[i] is the cheapest goal in the subtree of tree[i]. In
			// preorder every child follows its parent, so one backward pass
			// folds each subtree into its root.
			best := make([]float64, len(tree))
			for i := range best {
				best[i] = math.Inf(1)
			}
			for i := len(tree) - 1; i >= 0; i-- {
				if tree[i].deltaP <= tau {
					best[i] = math.Min(best[i], tree[i].cost)
				}
				if i > 0 {
					p := tree[i].parent
					best[p] = math.Min(best[p], best[i])
				}
			}
			for i, n := range tree {
				gc := s.h.gc(n.state, s.ds, tau)
				if gc > best[i]+1e-9 {
					t.Fatalf("trial %d τ=%d: gc%s=%v exceeds the subtree optimum %v\nΣ=%v\n%s",
						trial, tau, n.state, gc, best[i], sigma, in)
				}
				pairs++
			}
		}
	}
	t.Logf("%d (state, τ) pairs admissible", pairs)
}

// treeNode is one state of an enumerated search tree.
type treeNode struct {
	state  State
	parent int // index of the parent in preorder; -1 for the root
	cost   float64
	deltaP int
}

// searchTree enumerates every state of the searcher's tree in preorder,
// with its cost and monolithic δP.
func searchTree(s *Searcher) []treeNode {
	width := s.An.In.Schema.Width()
	var out []treeNode
	var visit func(st State, parent int)
	visit = func(st State, parent int) {
		i := len(out)
		out = append(out, treeNode{
			state:  st,
			parent: parent,
			cost:   s.costs.StateCost(st),
			deltaP: s.alpha * s.An.CoverSize(st),
		})
		for _, c := range st.Children(width, s.An.Sigma, nil) {
			visit(c, i)
		}
	}
	visit(Root(len(s.An.Sigma)), -1)
	return out
}

// TestGCInfinityImpliesInfeasible: whenever gc(root) is +Inf, the
// exhaustive search must also find nothing.
func TestGCInfinityImpliesInfeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(31415))
	infSeen := 0
	for trial := 0; trial < 80; trial++ {
		in := testkit.RandomInstance(rng, 8, 4, 2)
		sigma := testkit.RandomFDs(rng, 4, 1, 2)
		hS := NewSearcher(conflict.New(in, sigma), weights.AttrCount{}, Options{})
		oracle := NewSearcher(conflict.New(in, sigma), weights.AttrCount{}, Options{BestFirst: true})
		for _, tau := range []int{0, 1} {
			rootGC, _ := hS.DiagGC(tau, nil)
			if !math.IsInf(rootGC, 1) {
				continue
			}
			infSeen++
			truth, err := oracle.Find(context.Background(), tau)
			if err != nil {
				t.Fatal(err)
			}
			if truth != nil {
				t.Fatalf("trial %d τ=%d: gc(root)=∞ but a goal exists (%s, cost %v)",
					trial, tau, truth.State, truth.Cost)
			}
		}
	}
	if infSeen == 0 {
		t.Skip("no infeasible instances drawn; widen the generator if this persists")
	}
}

// TestKnapsackTightensWideDiffsets: on a workload whose difference sets
// are wide (every violating pair differs almost everywhere), the recursive
// bound alone collapses to ~one attribute of lookahead; the knapsack half
// must push gc(root) above the cheapest single-attribute cost when τ
// forces resolving most of the matching.
func TestKnapsackTightensWideDiffsets(t *testing.T) {
	// 6 attributes; FD A0→A5; tuples agree on A0 in pairs but differ on
	// everything else, so each pair's difference set is {1,2,3,4,5}.
	rows := make([][]string, 0, 20)
	for i := 0; i < 10; i++ {
		k := string(rune('a' + i))
		rows = append(rows,
			[]string{k, "x" + k + "1", "y" + k + "1", "z" + k + "1", "w" + k + "1", "r1"},
			[]string{k, "x" + k + "2", "y" + k + "2", "z" + k + "2", "w" + k + "2", "r2"},
		)
	}
	in := testkit.Build([]string{"A0", "A1", "A2", "A3", "A4", "A5"}, rows)
	sigma := testkit.RandomFDs(rand.New(rand.NewSource(1)), 6, 1, 1)
	sigma[0].LHS = relation.NewAttrSet(0)
	sigma[0].RHS = 5
	s := NewSearcher(conflict.New(in, sigma), weights.AttrCount{}, DefaultOptions())
	// All 10 pairs violate; τ=0 forces resolving all of them: at least
	// one attribute must be appended, so gc(root) ≥ 1.
	rootGC, _ := s.DiagGC(0, nil)
	if rootGC < 1 {
		t.Fatalf("gc(root) = %v, want ≥ 1", rootGC)
	}
	res, err := s.Find(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Cost < rootGC {
		t.Fatalf("optimal %v vs gc %v inconsistent", res, rootGC)
	}
}
