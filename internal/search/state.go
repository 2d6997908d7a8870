// Package search implements the FD-modification state space of the paper
// (Section 5): states are vectors of LHS extensions, organized as a tree by
// the single-parent rule so each state is reachable by exactly one path,
// explored either best-first (cost order) or with A* guided by the
// difference-set lower bound gc(S) (Algorithms 2 and 3).
//
// # Concurrency model
//
// One A* loop serves every worker count; its evaluations go through an
// evaluation pool. With Options.Workers > 1 each worker goroutine owns a
// conflict.Analysis fork (shared immutable clusters and code columns,
// private cover scratch), a private cost cache over one mutex-guarded
// weighting, and a private heuristic, so per-state cover queries and gc
// run lock-free. The coordinator fans out (1) successor scoring for each
// popped state, (2) the goal-test cover query — prefetched for the
// predicted next pop while the previous pop's children are still being
// scored — and (3) open-list re-estimation after a goal tightens τ. With
// Workers: 1 the pool is inline: no goroutine starts, the searcher's own
// analysis and caches answer, and each evaluation runs only when the loop
// waits for it, so speculation that would be discarded never runs.
//
// Determinism guarantee: results are bit-identical for every worker count.
// Workers compute pure functions of (state, τ); the coordinator alone
// touches the open list, commits child scores in generation order with
// seq tie-breakers in generation order, and discards (never reuses)
// speculative work invalidated by a goal. Find, FindRange, goal order,
// costs, cover sizes, and effort stats match Workers: 1 exactly.
//
// # Component-decomposed cover queries
//
// Every goal-test cover query is evaluated through a components.Evaluator
// (see internal/components): the conflict hypergraph is split into
// connected components once per analysis, each query computes
// per-component cover deltas — memoized by the extension's projection
// onto the component's relevant attributes — and the global answer is
// merged as min(Σ len2_c, 2·Σ pairs_c), which equals the monolithic
// two-pass conflict.Analysis.CoverSize exactly (cluster epochs never
// cross components). Queries that touch many components are chunked
// across the worker pool; the merge sums integers, so it is
// order-independent. The test suite pins the engine against a sequential
// reference loop whose goal tests are monolithic. Options.Decomp lets a
// session engine share one evaluator (its memo warms across sweeps)
// between searchers over the same root analysis.
//
// # Cancellation and errors
//
// Every search entry point takes a context.Context, checked once per
// open-list pop; cancellation aborts with context.Cause(ctx), after
// draining any in-flight worker tasks so forks return to their pools
// clean. FindRangeStream delivers results as they are proven final (see
// its doc for the one-goal lag that preserves Definition 4's tie-break).
// The MaxVisited runaway guard reports a *MaxVisitedError matching the
// ErrMaxVisited sentinel and carrying the abort-time Stats.
package search

import (
	"fmt"
	"strings"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
)

// State is Δc(Σ, Σ′): the vector of attribute sets appended to the LHS of
// each FD of the base set, indexed by FD position. The zero-length state is
// invalid; the root state is a vector of empty sets.
type State []relation.AttrSet

// Root returns the initial state (φ, …, φ) for a base set of z FDs.
func Root(z int) State { return make(State, z) }

// Clone returns a copy of the state.
func (s State) Clone() State { return append(State(nil), s...) }

// Equal reports position-wise equality.
func (s State) Equal(t State) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Extends reports whether s extends t: t[i] ⊆ s[i] for every i (the
// dominance notion used for pruning and minimality in Section 5.1).
func (s State) Extends(t State) bool {
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

// Union returns the union of all extension sets.
func (s State) Union() relation.AttrSet {
	var u relation.AttrSet
	for _, y := range s {
		u = u.Union(y)
	}
	return u
}

// maxAttrAndLastIdx returns the greatest attribute across the vector and the
// last position containing it; (-1, -1) for the root.
func (s State) maxAttrAndLastIdx() (int, int) {
	maxA := s.Union().Max()
	if maxA < 0 {
		return -1, -1
	}
	last := -1
	for i := range s {
		if s[i].Contains(maxA) {
			last = i
		}
	}
	return maxA, last
}

// Parent returns the unique parent of a non-root state under the
// single-parent rule: remove the greatest attribute from the last extension
// containing it. Calling Parent on the root returns the root.
func (s State) Parent() State {
	maxA, last := s.maxAttrAndLastIdx()
	if maxA < 0 {
		return s.Clone()
	}
	p := s.Clone()
	p[last] = p[last].Remove(maxA)
	return p
}

// Children appends to dst every child of s in the search tree over the
// given schema width and base FD set: states obtained by adding one
// attribute B to one extension position i, restricted so that the
// single-parent rule maps the child back to s — B strictly greater than
// s's maximum attribute (any position), or equal to it at a strictly later
// position. Attributes already in the FD (LHS or RHS) are never added.
func (s State) Children(width int, sigma fd.Set, dst []State) []State {
	maxA, last := s.maxAttrAndLastIdx()
	for i := range s {
		excl := sigma[i].LHS.Union(s[i]).Add(sigma[i].RHS)
		for b := 0; b < width; b++ {
			if excl.Contains(b) {
				continue
			}
			if b > maxA || (b == maxA && i > last) {
				c := s.Clone()
				c[i] = c[i].Add(b)
				dst = append(dst, c)
			}
		}
	}
	return dst
}

// Apply materializes the FD set Σ′ corresponding to the state: each FD's
// LHS is extended by the state's set at that position.
func (s State) Apply(sigma fd.Set) fd.Set {
	out := make(fd.Set, len(sigma))
	for i, f := range sigma {
		out[i] = fd.FD{LHS: f.LHS.Union(s[i].Diff(f.LHS).Remove(f.RHS)), RHS: f.RHS}
	}
	return out
}

// Key returns a canonical string identity for maps and tests.
func (s State) Key() string {
	var b strings.Builder
	for i, y := range s {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%x", uint64(y))
	}
	return b.String()
}

// String renders the extension vector, e.g. "({2,3}, φ)".
func (s State) String() string {
	parts := make([]string, len(s))
	for i, y := range s {
		if y.IsEmpty() {
			parts[i] = "φ"
		} else {
			parts[i] = y.String()
		}
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
