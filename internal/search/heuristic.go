package search

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"relatrust/internal/conflict"
	"relatrust/internal/fd"
	"relatrust/internal/relation"
)

// heuristic computes gc(S): a lower bound on dist_c of the cheapest goal
// state descending from S (Algorithm 3, getDescGoalStates). It considers a
// small subset Ds of the difference sets still violated at S; each set d in
// Ds must either be excluded — allowed only while the accumulated
// unresolved edges keep the 2-approximate cover under τ/α — or resolved by
// appending one attribute of d to every violated FD.
//
// Every approximation applied here (subset selection, sampled edge lists,
// the aggregate fallback when the resolution cross-product is too large)
// relaxes the bound downward, preserving admissibility in the sense of
// Lemma 1 of the paper.
//
// The exclusion budget test needs the size of a greedy matching over the
// edges of every difference set excluded so far on the recursion path.
// Greedy matching is prefix-stable — the matching of acc ++ d.Edges is the
// matching of acc extended over d.Edges — so descend carries only the
// matched-edge count down the recursion and the matching itself lives in
// scratch: extend marks the endpoints of the edges it adds, and the
// exclusion branch rolls them back with unmark before the resolve branch
// runs, leaving the marks exactly as its caller saw them. The scratch makes
// a heuristic single-goroutine; fork gives every worker its own.
type heuristic struct {
	sigma  fd.Set
	w      costFunc
	alpha  int
	maxDs  int
	width  int
	tuples int // instance size: the range of conflict.Edge endpoints
	// matchDiffs holds the difference sets of a globally vertex-disjoint
	// matching sample of the base conflict graph; see knapsack.
	matchDiffs []relation.AttrSet

	scratch gcScratch
}

// gcScratch is the per-fork working memory of gc, reused across calls so
// a steady-state evaluation allocates little beyond the resolve branch's
// child states.
type gcScratch struct {
	// marked flags the tuples matched by the exclusion matching of the
	// current recursion path; undo lists them in marking order.
	marked []bool
	undo   []int32
	// Knapsack: counts holds one row of per-attribute hit counts per FD,
	// used flags the rows filled by the current call, hits/costs are one
	// FD's options, and dp/next are the DP row and its successor.
	counts   []int
	used     []bool
	hits     []int
	costs    []float64
	dp, next []float64
	ds       []conflict.DiffSet // pickDs' result
	cands    []candidate        // candidates' sort keys
}

// costFunc prices an extension vector and single sets; split out so the
// heuristic is unit-testable without a weights.Func.
type costFunc interface {
	StateCost(s State) float64
	Marginal(cur relation.AttrSet, add int) float64
}

// fork returns a copy of the heuristic wired to a different cost function,
// sharing the read-only configuration and matching-sample slice but owning
// fresh scratch. The worker pool gives each worker a fork over a private
// costCache so gc runs lock-free; gc is a pure function of (state, ds, τ)
// given deterministic weights — no map iteration influences any branch —
// so every fork returns bit-identical bounds.
func (h *heuristic) fork(w costFunc) *heuristic {
	c := *h
	c.w = w
	c.scratch = gcScratch{}
	return &c
}

// gc returns the lower bound for state s at threshold tau: the maximum of
// the recursive difference-set bound (Algorithm 3) and the knapsack-cover
// bound over the matching sample. Both are admissible, so their maximum
// is, and each dominates on a different regime — the recursion when a few
// heavy difference sets must be resolved exactly, the knapsack when the
// budget forces resolving *many* difference sets whose attribute costs
// accumulate. Returns +Inf when no goal state can descend from s within
// tau.
func (h *heuristic) gc(s State, all []conflict.DiffSet, tau int) float64 {
	// A panic raised mid-descend (a weighting's) skips the rollbacks; start
	// from an empty matching so stale marks never reach this bound.
	if h.scratch.marked == nil {
		h.scratch.marked = make([]bool, h.tuples)
	}
	h.unmark(0)
	bound := h.knapsack(s, tau)
	if math.IsInf(bound, 1) {
		return bound
	}
	ds := h.pickDs(s, all)
	if rec := h.descend(s, 0, ds, tau); rec > bound {
		bound = rec
	}
	return bound
}

// knapsack lower-bounds the cheapest goal descendant of s via a covering
// argument. Let E be the matching sample restricted to edges still
// violating Σ(s): E is vertex-disjoint, so any goal Σ′ may leave at most
// B = ⌊τ/α⌋ of its edges unresolved — it must *resolve* at least
// K = |E| − B. Resolving an edge requires appending, to some violated FD,
// an attribute of the edge's difference set ("hitting" it); letting the
// appended set of each FD hit every edge it could (ignoring that a real
// repair must hit every violated FD of an edge — a relaxation, hence a
// lower bound), the cheapest way to reach K hits is a multiple-choice
// knapsack-cover over the FDs, solved exactly by DP.
//
// FD i's option j stands for every Y with j hitting attributes appended
// to it. Under a weighting that is only monotone, appending Y costs at
// least the largest single-attribute marginal in Y — not their sum — and
// that is at least the j-th smallest marginal; Y hits at most the j
// largest per-attribute hit counts. So option j charges the one and
// credits the other, and the bound holds for every weighting (Lemma 1).
func (h *heuristic) knapsack(s State, tau int) float64 {
	base := h.w.StateCost(s)
	if len(h.matchDiffs) == 0 {
		return base
	}
	budget := tau / h.alpha
	sc := &h.scratch
	if sc.used == nil {
		sc.used = make([]bool, len(h.sigma))
		sc.counts = make([]int, len(h.sigma)*h.width)
	}
	clear(sc.used)
	// Count unresolved edges and, per FD, aggregate per-attribute hit
	// counts over the edges violating that FD.
	unresolved := 0
	for _, d := range h.matchDiffs {
		edgeViolated := false
		for i, f := range h.sigma {
			lhs := f.LHS.Union(s[i])
			if lhs.Intersects(d) || !d.Contains(f.RHS) {
				continue
			}
			edgeViolated = true
			counts := sc.counts[i*h.width : (i+1)*h.width]
			if !sc.used[i] {
				sc.used[i] = true
				clear(counts)
			}
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
	// dp[k] = min cost to accumulate ≥ k hits (k capped at need) with one
	// option from each FD seen so far.
	inf := math.Inf(1)
	dp := slices.Grow(sc.dp[:0], need+1)[:need+1]
	next := slices.Grow(sc.next[:0], need+1)[:need+1]
	dp[0] = 0
	for k := 1; k <= need; k++ {
		dp[k] = inf
	}
	for i, f := range h.sigma {
		if !sc.used[i] {
			continue
		}
		lhs := f.LHS.Union(s[i])
		hits, costs := sc.hits[:0], sc.costs[:0]
		for a, n := range sc.counts[i*h.width : (i+1)*h.width] {
			if n == 0 || a == f.RHS || lhs.Contains(a) {
				continue
			}
			hits = append(hits, n)
			costs = append(costs, h.w.Marginal(s[i], a))
		}
		sc.hits, sc.costs = hits, costs
		slices.SortFunc(hits, func(a, b int) int { return cmp.Compare(b, a) })
		sort.Float64s(costs)
		copy(next, dp)
		for k, cost := range dp {
			got := k
			for j, n := range hits {
				got += n
				if c, nk := cost+costs[j], min(got, need); c < next[nk] {
					next[nk] = c
				}
			}
		}
		dp, next = next, dp
	}
	sc.dp, sc.next = dp, next
	if math.IsInf(dp[need], 1) {
		// Even appending everything appendable cannot resolve enough
		// edges: no goal descends from s within τ.
		return inf
	}
	return base + dp[need]
}

// pickDs selects up to maxDs difference sets that are violated at state s,
// favoring large edge counts and low attribute overlap (Section 5.2). The
// first pass skips sets fully covered by already-picked attributes; a
// second pass fills remaining slots in count order. The result lives in
// the heuristic's scratch until the next call.
func (h *heuristic) pickDs(s State, all []conflict.DiffSet) []conflict.DiffSet {
	out := h.scratch.ds[:0]
	var picked relation.AttrSet
	taken := func(d conflict.DiffSet) bool {
		return slices.ContainsFunc(out, func(o conflict.DiffSet) bool { return o.Attrs == d.Attrs })
	}
	for pass := 0; pass < 2 && len(out) < h.maxDs; pass++ {
		for _, d := range all {
			if len(out) >= h.maxDs {
				break
			}
			if taken(d) || !h.violated(s, d.Attrs) {
				continue
			}
			if pass == 0 && !picked.IsEmpty() && d.Attrs.SubsetOf(picked) {
				continue // heavily overlapping; defer to the second pass
			}
			picked = picked.Union(d.Attrs)
			out = append(out, d)
		}
	}
	h.scratch.ds = out
	return out
}

// violated reports whether a pair with difference set d violates some FD of
// the base set as extended by state s.
func (h *heuristic) violated(s State, d relation.AttrSet) bool {
	for i, f := range h.sigma {
		if !f.LHS.Union(s[i]).Intersects(d) && d.Contains(f.RHS) {
			return true
		}
	}
	return false
}

// violatedFDs returns the indices of base FDs violated by difference set d
// under state s.
func (h *heuristic) violatedFDs(s State, d relation.AttrSet) []int {
	var out []int
	for i, f := range h.sigma {
		if !f.LHS.Union(s[i]).Intersects(d) && d.Contains(f.RHS) {
			out = append(out, i)
		}
	}
	return out
}

// descend is the recursive core of Algorithm 3, returning the minimum cost
// over goal states reachable from sc that resolve or exclude every set in
// dc, given acc — the size of the greedy matching over the edges of the
// already-excluded difference sets, whose endpoints are marked in scratch.
// descend returns with the marks as it found them.
func (h *heuristic) descend(sc State, acc int, dc []conflict.DiffSet, tau int) float64 {
	if len(dc) == 0 {
		return h.w.StateCost(sc)
	}
	d := dc[0]
	best := math.Inf(1)

	// Option 1: leave d unresolved if the accumulated uncovered edges stay
	// within budget (Algorithm 3, lines 8-11). The budget test uses the
	// matching size |M| — a certified lower bound on every vertex cover of
	// the full conflict graph — rather than the paper's 2·|M| cover, and ≤
	// rather than <: both changes keep gc(S) admissible (never above the
	// cost of a real goal descendant), at the price of a slightly looser
	// bound. The matching over the excluded edges grows incrementally:
	// extending it over d.Edges gives the greedy matching of acc ++ d.Edges
	// (see heuristic), and unmark restores it for the resolve branch.
	mark := len(h.scratch.undo)
	if withD := acc + h.extend(d.Edges); withD*h.alpha <= tau {
		best = h.descend(sc, withD, dc[1:], tau)
	}
	h.unmark(mark)

	// Option 2: resolve d by appending one of its attributes to the LHS of
	// every FD it violates (lines 12-15).
	viol := h.violatedFDs(sc, d.Attrs)
	if len(viol) == 0 {
		// Already resolved at sc (can happen after an earlier extension);
		// just move on.
		if v := h.descend(sc, acc, dc[1:], tau); v < best {
			best = v
		}
		return best
	}
	cands := make([][]int, len(viol))
	combos := 1
	for k, fi := range viol {
		c := h.candidates(sc, fi, d.Attrs)
		if len(c) == 0 {
			// d differs only on this FD's RHS: no LHS extension can
			// resolve it, so the resolve branch is infeasible.
			return best
		}
		cands[k] = c
		if combos <= comboCap {
			combos *= len(c)
		}
	}
	if combos > comboCap {
		// Cross-product too large: fall back to an aggregate lower bound —
		// resolving d costs at least the cheapest marginal per violated FD
		// (the first candidate), and the remaining difference sets are
		// charged nothing.
		lb := h.w.StateCost(sc)
		for k, fi := range viol {
			lb += h.w.Marginal(sc[fi], cands[k][0])
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
			if v := h.descend(next, acc, rest, tau); v < best {
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

// candidates lists the attributes of d that may be appended to FD fi's LHS
// to resolve a pair with difference set d, sorted by marginal cost, then by
// attribute, so the aggregate fallback and enumeration both favor cheap
// fixes. Each marginal is priced once, before the sort.
func (h *heuristic) candidates(sc State, fi int, d relation.AttrSet) []int {
	f := h.sigma[fi]
	attrs := d.Diff(f.LHS.Union(sc[fi])).Remove(f.RHS).Attrs()
	keyed := h.scratch.cands[:0]
	for _, a := range attrs {
		keyed = append(keyed, candidate{attr: a, marginal: h.w.Marginal(sc[fi], a)})
	}
	slices.SortFunc(keyed, func(x, y candidate) int {
		if c := cmp.Compare(x.marginal, y.marginal); c != 0 {
			return c
		}
		return cmp.Compare(x.attr, y.attr)
	})
	for i, c := range keyed {
		attrs[i] = c.attr
	}
	h.scratch.cands = keyed
	return attrs
}

// candidate is one attribute candidates ranks, with its marginal cost.
type candidate struct {
	attr     int
	marginal float64
}

// filterViolated keeps the difference sets still violated at state s.
func filterViolated(h *heuristic, s State, dc []conflict.DiffSet) []conflict.DiffSet {
	out := make([]conflict.DiffSet, 0, len(dc))
	for _, d := range dc {
		if h.violated(s, d.Attrs) {
			out = append(out, d)
		}
	}
	return out
}

// extend grows the greedy matching of the current recursion path over the
// given edges, marking the endpoints of every edge it adds, and returns how
// many it added. Every vertex cover of any supergraph has at least as many
// vertices as the matching has edges, which is exactly the property the
// exclusion budget test needs.
func (h *heuristic) extend(edges []conflict.Edge) int {
	marked := h.scratch.marked
	added := 0
	for _, e := range edges {
		if marked[e.T1] || marked[e.T2] {
			continue
		}
		marked[e.T1], marked[e.T2] = true, true
		h.scratch.undo = append(h.scratch.undo, e.T1, e.T2)
		added++
	}
	return added
}

// unmark rolls the matching back to the point where the undo list held n
// tuples.
func (h *heuristic) unmark(n int) {
	for _, t := range h.scratch.undo[n:] {
		h.scratch.marked[t] = false
	}
	h.scratch.undo = h.scratch.undo[:n]
}
