// Package components decomposes the conflict hypergraph of an analyzed
// instance into connected components and evaluates vertex-cover queries
// per component, so the repair search pays per state only for the
// components an extension vector actually touches — and can fan that work
// across the search's evaluation workers — instead of re-walking every
// violation cluster of the instance.
//
// # Decomposition model
//
// A violation cluster (tuples sharing an FD's original LHS projection with
// ≥2 distinct RHS values) induces a complete multipartite conflict graph,
// so every cluster is internally connected and lies inside exactly one
// connected component of the global conflict graph. Components are
// therefore computed by union–find over the cluster tuple lists in
// O(violating tuples), and a component is a set of clusters — no tuple is
// shared across components. Because the conflict graph of every extension
// Σ′ ∈ S(Σ) is a subgraph of the base graph (agreement on XiYi implies
// agreement on Xi), the base decomposition remains valid for every state
// the search visits.
//
// # Merged frontiers and the bit-identity guarantee
//
// The global cover() of internal/conflict runs two passes — a maximal
// matching M, then an "all but the largest subgroup" cover — and returns
// the pass-2 cover unless it exceeds the 2·|M| certificate. Epoch marks
// never cross components (their tuple sets are disjoint), so both passes
// decompose exactly: the per-component pair counts and cover lengths sum
// to the global ones, and
//
//	CoverSize(ext) = min(Σ_c len2_c(ext), 2·Σ_c pairs_c(ext))
//
// reproduces the global fallback decision on the sums. Each component's
// (len2_c, pairs_c) is evaluated against the extension vector projected
// onto the component — its FDs, intersected with the attributes on which
// its tuples differ at all (refining by an attribute every tuple agrees on
// is a partition no-op) — which is what makes the per-component responses
// memoizable: many global states project to the same local query, and a
// component untouched by a state's extensions answers from its base value
// without any partition work. Merging the per-component responses this way
// keeps the A* pop sequence — and therefore the Pareto frontier, its
// Definition-4 supersede/tie-break order, and every reported statistic of
// the search — bit-identical to the monolithic sweep, for every worker
// count, which the oracle suites in internal/components, internal/search,
// the facade, and internal/server pin.
//
// # Concurrency
//
// A Decomposition is immutable once built. An Evaluator may be shared
// by any number of goroutines (the search's evaluation workers, concurrent
// searchers over the same session root): memo tables are striped by
// component, values are pure functions of the projected query, and callers
// supply their own forked conflict.Analysis for the partition scratch.
//
// # Goal covers
//
// Cover answers the other query a frontier point needs, the cover tuples
// themselves, which the data repair rewrites. It memoizes the monolithic
// conflict.Analysis.Cover per goal state on the evaluator, so a dataset's
// repeated sweeps refine each goal's clusters once. The memo names tuples
// by position, so it lives and dies with one evaluator: SpliceEvaluator
// never carries it, because a mutation batch renumbers tuples.
package components

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"relatrust/internal/conflict"
	"relatrust/internal/relation"
)

// Component is one connected component of the conflict hypergraph.
type Component struct {
	// Clusters lists the component's violation clusters in global (FD,
	// cluster) construction order — the order the monolithic passes visit
	// them.
	Clusters []conflict.ClusterRef
	// FDs lists the FDs with at least one cluster in this component,
	// ascending.
	FDs []int32
	// Tuples is the number of distinct tuples in the component.
	Tuples int
	// Relevant is the set of attributes on which the component's tuples
	// are not all equal; extension attributes outside it cannot refine any
	// of the component's partitions.
	Relevant relation.AttrSet
}

// Decomposition is the component structure of one analyzed (instance, Σ)
// pair, with the per-component base cover responses (ext = nil)
// precomputed. Immutable once built.
type Decomposition struct {
	Comps []Component
	// compsOf[fi] lists the components containing a cluster of FD fi,
	// ascending.
	compsOf [][]int32
	lhs     []relation.AttrSet // per-FD LHS, for extension projection

	// compOf[t] is the component containing tuple t, -1 for tuples in no
	// violation cluster. The live mutation tier uses it to find which
	// components a mutated tuple dirties.
	compOf []int32

	baseLen2   []int32
	basePairs  []int32
	baseLen2S  int64
	basePairsS int64

	largest int // max Component.Tuples
	tuples  int // Σ Component.Tuples: the tuples in some violation cluster
	// alive counts non-tombstone components. SpliceEvaluator leaves a dead
	// slot behind when dirty components merge, so surviving components keep
	// their ids (and their striped memo tables) across splices; the cold
	// build frees no ids, so it leaves none.
	alive int
}

// Components returns the number of live connected components (splice
// tombstones excluded).
func (d *Decomposition) Components() int { return d.alive }

// LargestComponent returns the tuple count of the largest component.
func (d *Decomposition) LargestComponent() int { return d.largest }

// compVal is one memoized per-component cover response.
type compVal struct {
	len2, pairs int32
}

// memoStripes bounds lock contention when workers evaluate disjoint
// component chunks; memoCap bounds each component's memo table (a pure
// memo — clearing costs only future hits, never correctness).
const (
	memoStripes = 64
	memoCap     = 2048
)

// coverMemoCovers bounds the goal-cover memo to this many covers of the
// largest possible size (every violating tuple): about 4·coverMemoCovers
// bytes per violating tuple. A cover is charged its length plus its key's
// length in int32 words, and the memo clears itself when full.
const coverMemoCovers = 64

// Counters reports an evaluator's lifetime effort. Monotonic; safe to read
// concurrently with evaluations.
type Counters struct {
	// Evals counts per-component cover evaluations that ran the two
	// restricted passes (memo misses).
	Evals int64
	// MemoHits counts per-component queries answered from the memo or the
	// base response without partition work.
	MemoHits int64
	// Parallel counts per-component evaluations dispatched through the
	// search's cross-component fan-out.
	Parallel int64
}

// Evaluator answers global CoverSize queries through the decomposition,
// memoizing per-component responses. Safe for concurrent use; each call
// site supplies its own (forked) analysis for partition scratch.
type Evaluator struct {
	d *Decomposition

	// stripes is shared across every evaluator spliced from one ancestor:
	// surviving components alias their memo maps across the splice, and the
	// shared mutexes keep concurrent mutation of one map by the old and new
	// evaluator (an in-flight sweep and a post-mutation sweep) serialized —
	// component ids are stable across splices, so both sides lock the same
	// stripe for the same map.
	stripes *[memoStripes]sync.Mutex
	// memo1 serves the dominant single-FD components keyed by the
	// projected extension set directly; memoK serves multi-FD components
	// keyed by the packed projection. Both indexed by component, created
	// lazily under the component's stripe.
	memo1 []map[relation.AttrSet]compVal
	memoK []map[string]compVal

	affMu  sync.RWMutex
	affect map[uint64][]int32 // affected components by nonempty-FD mask

	// covers memoizes Cover by the packed extension vector; coverWords
	// is its charge (see coverMemoCovers). Never shared with a spliced
	// evaluator.
	coverMu    sync.Mutex
	covers     map[string][]int32
	coverWords int

	evals    atomic.Int64
	memoHits atomic.Int64
	parallel atomic.Int64

	// rootData holds what the searchers over this evaluator's root derive
	// from (instance, Σ) alone; see RootData.
	rootOnce sync.Once
	rootData any
}

// NewEvaluator decomposes the analysis and returns a shared evaluator
// over it. The cold build is a splice of an empty predecessor in which
// every cluster is new, so it runs the one union–find and base cover pass
// of SpliceEvaluator. The analysis is only used during construction; the
// decomposition shares its immutable cluster arenas, and later queries run
// against whatever fork the caller passes.
func NewEvaluator(an *conflict.Analysis) *Evaluator {
	lhs := make([]relation.AttrSet, len(an.Sigma))
	for fi, f := range an.Sigma {
		lhs[fi] = f.LHS
	}
	info := SpliceInfo{OldPos: make([]int32, an.N()), Dirty: an.Clusters()}
	for t := range info.OldPos {
		info.OldPos[t] = -1
	}
	empty := &Evaluator{d: &Decomposition{lhs: lhs}, stripes: new([memoStripes]sync.Mutex)}
	ev, _ := SpliceEvaluator(empty, an, info)
	return ev
}

// RootData returns the value build returns, calling build only on the
// first call over this evaluator: state that depends only on the
// evaluator's (instance, Σ) root, computed once and shared read-only by
// every caller. The search keeps its difference sets and matching sample
// here, so every session over a cached root reuses them. A splice
// returns a new evaluator, which starts without the value.
func (e *Evaluator) RootData(build func() any) any {
	e.rootOnce.Do(func() { e.rootData = build() })
	return e.rootData
}

// Decomposition returns the underlying component structure.
func (e *Evaluator) Decomposition() *Decomposition { return e.d }

// Counters returns a snapshot of the evaluator's effort counters.
func (e *Evaluator) Counters() Counters {
	return Counters{
		Evals:    e.evals.Load(),
		MemoHits: e.memoHits.Load(),
		Parallel: e.parallel.Load(),
	}
}

// CountParallel records n per-component evaluations dispatched across
// workers (called by the search's fan-out).
func (e *Evaluator) CountParallel(n int) { e.parallel.Add(int64(n)) }

// Affected returns the components containing a cluster of some FD whose
// extension in ext is non-empty, ascending — exactly the components whose
// response can differ from the base. The result is memoized by the set of
// extended FDs and shared: callers must not modify it. A nil return means
// no component is affected.
func (e *Evaluator) Affected(ext []relation.AttrSet) []int32 {
	if ext == nil {
		return nil
	}
	var mask uint64
	masked := len(e.d.lhs) <= 64
	any := false
	for fi := range e.d.lhs {
		if !ext[fi].Diff(e.d.lhs[fi]).IsEmpty() {
			any = true
			if masked {
				mask |= 1 << uint(fi)
			}
		}
	}
	if !any {
		return nil
	}
	if masked {
		if mask&(mask-1) == 0 { // single extended FD: its list verbatim
			return e.d.compsOf[bits.TrailingZeros64(mask)]
		}
		e.affMu.RLock()
		cached, ok := e.affect[mask]
		e.affMu.RUnlock()
		if ok {
			return cached
		}
	}
	merged := e.mergeAffected(ext)
	if masked {
		e.affMu.Lock()
		e.affect[mask] = merged
		e.affMu.Unlock()
	}
	return merged
}

// mergeAffected unions the per-FD component lists of the extended FDs
// into one deduplicated ascending list.
func (e *Evaluator) mergeAffected(ext []relation.AttrSet) []int32 {
	seen := make(map[int32]bool)
	var out []int32
	for fi := range e.d.lhs {
		if ext[fi].Diff(e.d.lhs[fi]).IsEmpty() {
			continue
		}
		for _, c := range e.d.compsOf[fi] {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	// First-appearance order depends on FD order; sort for a canonical
	// ascending result.
	slices.Sort(out)
	return out
}

// EvalDelta evaluates the listed components against ext on the supplied
// analysis and returns the summed differences from the base responses.
// Deterministic: the sums are integers, so any partition of the affected
// list across workers combines to the same totals.
func (e *Evaluator) EvalDelta(an *conflict.Analysis, comps []int32, ext []relation.AttrSet) (dLen2, dPairs int64) {
	var evals, hits int64
	var keyArr [128]byte
	for _, c := range comps {
		comp := &e.d.Comps[c]
		// The local query: each FD's extension projected onto the
		// component. A single-FD component keys its memo by that set, a
		// multi-FD one by the packed sets.
		var y relation.AttrSet
		key := keyArr[:0]
		zero := true
		for _, fi := range comp.FDs {
			y = ext[fi].Diff(e.d.lhs[fi]).Intersect(comp.Relevant)
			zero = zero && y.IsEmpty()
			key = appendUint64(key, uint64(y))
		}
		if zero {
			hits++ // projected to the base query: no partition work
			continue
		}
		single := len(comp.FDs) == 1
		stripe := &e.stripes[int(c)%memoStripes]
		var v compVal
		var ok bool
		stripe.Lock()
		if single {
			v, ok = e.memo1[c][y]
		} else {
			v, ok = e.memoK[c][string(key)]
		}
		stripe.Unlock()
		if ok {
			hits++
		} else {
			evals++
			l2, p := an.SubsetCover(comp.Clusters, ext, comp.Relevant)
			v = compVal{len2: int32(l2), pairs: int32(p)}
			stripe.Lock()
			if single {
				e.memo1[c] = memoPut(e.memo1[c], y, v)
			} else {
				e.memoK[c] = memoPut(e.memoK[c], string(key), v)
			}
			stripe.Unlock()
		}
		dLen2 += int64(v.len2 - e.d.baseLen2[c])
		dPairs += int64(v.pairs - e.d.basePairs[c])
	}
	e.evals.Add(evals)
	e.memoHits.Add(hits)
	return dLen2, dPairs
}

// memoPut stores v under k in a component's memo table, creating the table
// on first use and clearing it once full, and returns the table. Caller
// holds the component's stripe.
func memoPut[K comparable](m map[K]compVal, k K, v compVal) map[K]compVal {
	if m == nil {
		m = make(map[K]compVal)
	} else if len(m) >= memoCap {
		clear(m)
	}
	m[k] = v
	return m
}

// Combine folds summed deltas into the global cover size, applying the
// 2·|M| certificate fallback to the merged totals exactly as the
// monolithic cover() applies it globally.
func (e *Evaluator) Combine(dLen2, dPairs int64) int {
	l := e.d.baseLen2S + dLen2
	p2 := 2 * (e.d.basePairsS + dPairs)
	if l <= p2 {
		return int(l)
	}
	return int(p2)
}

// CoverSize returns |C2opt(Σ′, I)| for the extension vector, bit-identical
// to an.CoverSize(ext) on any fork of the decomposed analysis.
func (e *Evaluator) CoverSize(an *conflict.Analysis, ext []relation.AttrSet) int {
	comps := e.Affected(ext)
	if len(comps) == 0 {
		return e.Combine(0, 0)
	}
	dLen2, dPairs := e.EvalDelta(an, comps, ext)
	return e.Combine(dLen2, dPairs)
}

// Cover returns C2opt(Σ′, I), the cover tuples in increasing order:
// an.Cover(ext) on any fork of the decomposed analysis, memoized per goal
// state (coverMemoCovers bounds the memo). The result is a copy, the
// caller's to keep and modify.
func (e *Evaluator) Cover(an *conflict.Analysis, ext []relation.AttrSet) []int32 {
	var keyArr [128]byte
	key := keyArr[:0]
	for fi := range e.d.lhs {
		var y relation.AttrSet
		if ext != nil {
			y = ext[fi].Diff(e.d.lhs[fi])
		}
		key = appendUint64(key, uint64(y))
	}
	e.coverMu.Lock()
	c, ok := e.covers[string(key)]
	e.coverMu.Unlock()
	if !ok {
		c = an.Cover(ext)
		e.coverMu.Lock()
		e.putCover(string(key), c)
		e.coverMu.Unlock()
	}
	return slices.Clone(c)
}

// putCover stores c under k, clearing the memo first when c would
// exceed its bound. Caller holds coverMu.
func (e *Evaluator) putCover(k string, c []int32) {
	if _, ok := e.covers[k]; ok {
		return
	}
	words := len(c) + len(k)/4
	limit := coverMemoCovers * (e.d.tuples + 2*len(e.d.lhs))
	if e.covers == nil {
		e.covers = make(map[string][]int32)
	} else if e.coverWords+words > limit {
		clear(e.covers)
		e.coverWords = 0
	}
	e.covers[k] = c
	e.coverWords += words
}

// appendUint64 appends v little-endian.
func appendUint64(b []byte, v uint64) []byte {
	return append(b,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
