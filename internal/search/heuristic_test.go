package search

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"relatrust/internal/conflict"
	"relatrust/internal/relation"
	"relatrust/internal/testkit"
	"relatrust/internal/weights"
)

// TestGCAdmissibility: under every weighting — the additive attr-count
// and the merely monotone distinct-count, entropy and MDL — gc(S) must
// never exceed the cost of the cheapest goal descending from S (Lemma 1)
// at every state of the search tree, not just the root, and gc(S) = +Inf
// must mean no goal descends from S. Violations would break A*
// optimality silently, so this is the load-bearing property test for both
// heuristic halves (recursive + knapsack). The ground truth enumerates the
// whole tree with monolithic cover queries.
func TestGCAdmissibility(t *testing.T) {
	pairs := 0
	forEachGCInstance(t, func(trial int, name string, s *Searcher) {
		tree := searchTree(s)
		dp := s.DeltaPOriginal()
		for tau := 0; tau <= dp; tau++ {
			// best[i] is the cheapest goal in the subtree of tree[i]. In
			// preorder every child follows its parent, so one backward
			// pass folds each subtree into its root.
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
					t.Fatalf("trial %d %s τ=%d: gc%s=%v exceeds the subtree optimum %v\nΣ=%v\n%s",
						trial, name, tau, n.state, gc, best[i], s.An.Sigma, s.An.In)
				}
				pairs++
			}
		}
	})
	t.Logf("%d (state, τ) pairs admissible", pairs)
}

// forEachGCInstance calls fn with a fresh searcher for each of 80 small
// random instances under each of the four weightings: the additive
// attr-count and the merely monotone distinct-count, entropy and MDL.
func forEachGCInstance(t *testing.T, fn func(trial int, name string, s *Searcher)) {
	t.Helper()
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 80; trial++ {
		width := 4 + rng.Intn(3)
		in := testkit.RandomInstance(rng, 8+rng.Intn(8), width, 2)
		sigma := testkit.RandomFDs(rng, width, 1+rng.Intn(2), 2)

		src := weights.NewSource(in)
		for _, name := range []string{"attr-count", "distinct-count", "entropy", "mdl"} {
			w, err := weights.ByName(name, src)
			if err != nil {
				t.Fatal(err)
			}
			fn(trial, name, NewSearcher(conflict.New(in, sigma), w, Options{}))
		}
	}
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
	s := NewSearcher(conflict.New(in, sigma), weights.AttrCount{}, Options{})
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

// TestGCMatchesReference: gc, with its exclusion matching grown in place
// and its knapsack on reused scratch, returns bit-identical bounds to the
// reference below — which rebuilds the matching from the accumulated edge
// list at every step and allocates fresh knapsack rows — at every state of
// the search tree and every τ ∈ [0, δP], under every weighting. One
// heuristic answers all the queries in sequence, so stale scratch from one
// call would show in the next.
func TestGCMatchesReference(t *testing.T) {
	pairs := 0
	forEachGCInstance(t, func(trial int, name string, s *Searcher) {
		tree := searchTree(s)
		for tau := 0; tau <= s.DeltaPOriginal(); tau++ {
			for _, n := range tree {
				got, want := s.h.gc(n.state, s.ds, tau), refGC(s.h, n.state, s.ds, tau)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d %s τ=%d: gc%s=%v, reference %v", trial, name, tau, n.state, got, want)
				}
				pairs++
			}
		}
	})
	t.Logf("%d (state, τ) pairs bit-identical", pairs)
}

// TestMatchingExtendMatchesGreedy: under random nested extend/unmark
// sequences, the matching's size and marked tuples always equal a greedy
// matching rebuilt from scratch over the concatenated edge lists still on
// the stack.
func TestMatchingExtendMatchesGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		tuples := 2 + rng.Intn(30)
		h := &heuristic{scratch: gcScratch{marked: make([]bool, tuples)}}
		type frame struct {
			edges []conflict.Edge
			mark  int // undo length before the frame's extend
			size  int // matching size after it
		}
		var stack []frame
		for step := 0; step < 60; step++ {
			if len(stack) > 0 && rng.Intn(3) == 0 {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				h.unmark(top.mark)
			} else {
				edges := make([]conflict.Edge, rng.Intn(6))
				for i := range edges {
					edges[i] = conflict.Edge{T1: int32(rng.Intn(tuples)), T2: int32(rng.Intn(tuples))}
				}
				size := 0
				if len(stack) > 0 {
					size = stack[len(stack)-1].size
				}
				mark := len(h.scratch.undo)
				stack = append(stack, frame{edges: edges, mark: mark, size: size + h.extend(edges)})
			}
			var prefix []conflict.Edge
			size := 0
			for _, f := range stack {
				prefix = append(prefix, f.edges...)
				size = f.size
			}
			wantSize, wantMarked := greedyMatching(prefix, tuples)
			if size != wantSize {
				t.Fatalf("trial %d step %d: matching size %d, greedy over the prefix %d", trial, step, size, wantSize)
			}
			if !slices.Equal(h.scratch.marked, wantMarked) {
				t.Fatalf("trial %d step %d: marked %v, greedy over the prefix %v", trial, step, h.scratch.marked, wantMarked)
			}
		}
	}
}

// greedyMatching returns the size and matched tuples of the greedy
// matching of the edge list.
func greedyMatching(edges []conflict.Edge, tuples int) (int, []bool) {
	marked := make([]bool, tuples)
	size := 0
	for _, e := range edges {
		if marked[e.T1] || marked[e.T2] {
			continue
		}
		marked[e.T1], marked[e.T2] = true, true
		size++
	}
	return size, marked
}

// The reference heuristic below is gc as it stood before the exclusion
// matching and the knapsack moved onto per-fork scratch: descend carries
// the accumulated edge list and rebuilds a greedy matching over it at
// every step, and knapsack and pickDs allocate their rows per call.

func refGC(h *heuristic, s State, all []conflict.DiffSet, tau int) float64 {
	bound := refKnapsack(h, s, tau)
	if math.IsInf(bound, 1) {
		return bound
	}
	ds := refPickDs(h, s, all)
	if rec := refDescend(h, s, nil, ds, tau); rec > bound {
		bound = rec
	}
	return bound
}

func refKnapsack(h *heuristic, s State, tau int) float64 {
	base := h.w.StateCost(s)
	if len(h.matchDiffs) == 0 {
		return base
	}
	budget := tau / h.alpha
	unresolved := 0
	perFD := make([][]int, len(h.sigma))
	for _, d := range h.matchDiffs {
		edgeViolated := false
		for i, f := range h.sigma {
			lhs := f.LHS.Union(s[i])
			if lhs.Intersects(d) || !d.Contains(f.RHS) {
				continue
			}
			edgeViolated = true
			if perFD[i] == nil {
				perFD[i] = make([]int, h.width)
			}
			counts := perFD[i]
			d.ForEach(func(a int) bool {
				counts[a]++
				return true
			})
		}
		if edgeViolated {
			unresolved++
		}
	}
	need := unresolved - budget
	if need <= 0 {
		return base
	}
	inf := math.Inf(1)
	dp := make([]float64, need+1)
	for k := 1; k <= need; k++ {
		dp[k] = inf
	}
	for i, f := range h.sigma {
		if perFD[i] == nil {
			continue
		}
		lhs := f.LHS.Union(s[i])
		var hits []int
		var costs []float64
		for a, n := range perFD[i] {
			if n == 0 || a == f.RHS || lhs.Contains(a) {
				continue
			}
			hits = append(hits, n)
			costs = append(costs, h.w.Marginal(s[i], a))
		}
		sort.Sort(sort.Reverse(sort.IntSlice(hits)))
		sort.Float64s(costs)
		next := slices.Clone(dp)
		for k, cost := range dp {
			got := k
			for j, n := range hits {
				got += n
				if c, nk := cost+costs[j], min(got, need); c < next[nk] {
					next[nk] = c
				}
			}
		}
		dp = next
	}
	if math.IsInf(dp[need], 1) {
		return inf
	}
	return base + dp[need]
}

func refPickDs(h *heuristic, s State, all []conflict.DiffSet) []conflict.DiffSet {
	out := make([]conflict.DiffSet, 0, h.maxDs)
	var picked relation.AttrSet
	taken := make(map[relation.AttrSet]bool, h.maxDs)
	for pass := 0; pass < 2 && len(out) < h.maxDs; pass++ {
		for _, d := range all {
			if len(out) >= h.maxDs {
				break
			}
			if taken[d.Attrs] || !h.violated(s, d.Attrs) {
				continue
			}
			if pass == 0 && !picked.IsEmpty() && d.Attrs.SubsetOf(picked) {
				continue
			}
			taken[d.Attrs] = true
			picked = picked.Union(d.Attrs)
			out = append(out, d)
		}
	}
	return out
}

func refDescend(h *heuristic, sc State, acc []conflict.Edge, dc []conflict.DiffSet, tau int) float64 {
	if len(dc) == 0 {
		return h.w.StateCost(sc)
	}
	d := dc[0]
	best := math.Inf(1)
	accWithD := make([]conflict.Edge, 0, len(acc)+len(d.Edges))
	accWithD = append(accWithD, acc...)
	accWithD = append(accWithD, d.Edges...)
	if refMatchingSize(accWithD)*h.alpha <= tau {
		best = refDescend(h, sc, accWithD, dc[1:], tau)
	}
	viol := h.violatedFDs(sc, d.Attrs)
	if len(viol) == 0 {
		if v := refDescend(h, sc, acc, dc[1:], tau); v < best {
			best = v
		}
		return best
	}
	cands := make([][]int, len(viol))
	combos := 1
	for k, fi := range viol {
		c := h.candidates(sc, fi, d.Attrs)
		if len(c) == 0 {
			return best
		}
		cands[k] = c
		if combos <= comboCap {
			combos *= len(c)
		}
	}
	if combos > comboCap {
		lb := h.w.StateCost(sc)
		for k, fi := range viol {
			cheapest := math.Inf(1)
			for _, a := range cands[k] {
				if m := h.w.Marginal(sc[fi], a); m < cheapest {
					cheapest = m
				}
			}
			lb += cheapest
		}
		if lb < best {
			best = lb
		}
		return best
	}
	choice := make([]int, len(viol))
	var rec func(k int)
	rec = func(k int) {
		if k == len(viol) {
			next := sc.Clone()
			for j, fi := range viol {
				next[fi] = next[fi].Add(choice[j])
			}
			rest := filterViolated(h, next, dc[1:])
			if v := refDescend(h, next, acc, rest, tau); v < best {
				best = v
			}
			return
		}
		for _, a := range cands[k] {
			choice[k] = a
			rec(k + 1)
		}
	}
	rec(0)
	return best
}

func refMatchingSize(edges []conflict.Edge) int {
	matched := make(map[int32]struct{}, len(edges))
	size := 0
	for _, e := range edges {
		if _, ok := matched[e.T1]; ok {
			continue
		}
		if _, ok := matched[e.T2]; ok {
			continue
		}
		matched[e.T1] = struct{}{}
		matched[e.T2] = struct{}{}
		size++
	}
	return size
}
