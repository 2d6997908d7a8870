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
// A Decomposition is immutable after Decompose. An Evaluator may be shared
// by any number of goroutines (the search's evaluation workers, concurrent
// searchers over the same session root): memo tables are striped by
// component, values are pure functions of the projected query, and callers
// supply their own forked conflict.Analysis for the partition scratch.
package components

import (
	"math/bits"
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
// precomputed. Immutable after Decompose.
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
	// alive counts non-tombstone components. Decompose never produces
	// tombstones; SpliceEvaluator leaves a dead slot behind when dirty
	// components merge, so surviving components keep their ids (and their
	// striped memo tables) across splices.
	alive int
}

// Decompose computes the connected components of an analysis' conflict
// hypergraph in O(violating tuples · α(n)) plus one base cover pass. The
// analysis is only read; the returned decomposition shares its immutable
// cluster arenas and stays valid for every fork of the same root.
func Decompose(an *conflict.Analysis) *Decomposition {
	n := an.N()
	sigma := an.Sigma
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1 // not violating
	}
	var find func(t int32) int32
	find = func(t int32) int32 {
		if parent[t] == t {
			return t
		}
		r := find(parent[t])
		parent[t] = r
		return r
	}
	for fi := range sigma {
		for ci := 0; ci < an.NumClusters(fi); ci++ {
			g := an.ClusterTuples(fi, ci)
			for _, t := range g {
				if parent[t] == -1 {
					parent[t] = t
				}
			}
			r := find(g[0])
			for _, t := range g[1:] {
				rt := find(t)
				if rt != r {
					parent[rt] = r
				}
			}
		}
	}

	// Component IDs by first appearance in global (fi, ci) cluster order,
	// so the decomposition is deterministic for a fixed analysis.
	compOf := make(map[int32]int32)
	d := &Decomposition{
		compsOf: make([][]int32, len(sigma)),
		lhs:     make([]relation.AttrSet, len(sigma)),
	}
	for fi, f := range sigma {
		d.lhs[fi] = f.LHS
	}
	for fi := range sigma {
		for ci := 0; ci < an.NumClusters(fi); ci++ {
			g := an.ClusterTuples(fi, ci)
			r := find(g[0])
			c, ok := compOf[r]
			if !ok {
				c = int32(len(d.Comps))
				compOf[r] = c
				d.Comps = append(d.Comps, Component{})
			}
			comp := &d.Comps[c]
			comp.Clusters = append(comp.Clusters, conflict.ClusterRef{FD: int32(fi), Cluster: int32(ci)})
			if len(comp.FDs) == 0 || comp.FDs[len(comp.FDs)-1] != int32(fi) {
				comp.FDs = append(comp.FDs, int32(fi))
				d.compsOf[fi] = append(d.compsOf[fi], c)
			}
		}
	}

	// Tuple counts and relevant-attribute sets: one pass over each
	// component's cluster tuples, deduplicated by stamping.
	width := an.In.Schema.Width()
	cols := make([][]int32, width)
	for a := 0; a < width; a++ {
		cols[a], _ = an.In.Codes(a)
	}
	stamp := make([]int32, n)
	for i := range stamp {
		stamp[i] = -1
	}
	full := relation.FullSet(width)
	for c := range d.Comps {
		comp := &d.Comps[c]
		var first int32 = -1
		for _, ref := range comp.Clusters {
			for _, t := range an.ClusterTuples(int(ref.FD), int(ref.Cluster)) {
				if stamp[t] == int32(c) {
					continue
				}
				stamp[t] = int32(c)
				comp.Tuples++
				if first < 0 {
					first = t
					continue
				}
				if comp.Relevant == full {
					continue
				}
				for a := 0; a < width; a++ {
					if !comp.Relevant.Contains(a) && cols[a][t] != cols[a][first] {
						comp.Relevant = comp.Relevant.Add(a)
					}
				}
			}
		}
		if comp.Tuples > d.largest {
			d.largest = comp.Tuples
		}
	}
	// The stamp array ends holding exactly the component of every violating
	// tuple (-1 elsewhere) — keep it as the tuple→component map.
	d.compOf = stamp
	d.alive = len(d.Comps)

	// Base responses: the component covers of the unmodified Σ. Their sums
	// with the global fallback rule equal CoverSize(nil) by the argument in
	// the package doc.
	d.baseLen2 = make([]int32, len(d.Comps))
	d.basePairs = make([]int32, len(d.Comps))
	for c := range d.Comps {
		l2, p := an.SubsetCover(d.Comps[c].Clusters, nil, d.Comps[c].Relevant)
		d.baseLen2[c] = int32(l2)
		d.basePairs[c] = int32(p)
		d.baseLen2S += int64(l2)
		d.basePairsS += int64(p)
	}
	return d
}

// Components returns the number of live connected components (splice
// tombstones excluded).
func (d *Decomposition) Components() int { return d.alive }

// CompOf returns the component containing tuple t, or -1 when t is in no
// violation cluster (including splice tombstone-cleared tuples).
func (d *Decomposition) CompOf(t int32) int32 { return d.compOf[t] }

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

	evals    atomic.Int64
	memoHits atomic.Int64
	parallel atomic.Int64
}

// NewEvaluator decomposes the analysis and returns a shared evaluator
// over it. The analysis is only used during construction; later queries
// run against whatever fork the caller passes.
func NewEvaluator(an *conflict.Analysis) *Evaluator {
	d := Decompose(an)
	return &Evaluator{
		d:       d,
		stripes: new([memoStripes]sync.Mutex),
		// Fixed-size so concurrent stripes never reallocate the slices;
		// the maps themselves are created lazily under their stripe.
		memo1:  make([]map[relation.AttrSet]compVal, len(d.Comps)),
		memoK:  make([]map[string]compVal, len(d.Comps)),
		affect: make(map[uint64][]int32),
	}
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
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
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
		if len(comp.FDs) == 1 {
			fi := int(comp.FDs[0])
			y := ext[fi].Diff(e.d.lhs[fi]).Intersect(comp.Relevant)
			if y.IsEmpty() {
				hits++ // projected to the base query: no partition work
				continue
			}
			stripe := &e.stripes[int(c)%memoStripes]
			stripe.Lock()
			m := e.memoAt1(c)
			v, ok := m[y]
			stripe.Unlock()
			if !ok {
				evals++
				l2, p := an.SubsetCover(comp.Clusters, ext, comp.Relevant)
				v = compVal{len2: int32(l2), pairs: int32(p)}
				stripe.Lock()
				if len(m) >= memoCap {
					clear(m)
				}
				m[y] = v
				stripe.Unlock()
			} else {
				hits++
			}
			dLen2 += int64(v.len2 - e.d.baseLen2[c])
			dPairs += int64(v.pairs - e.d.basePairs[c])
			continue
		}
		key := keyArr[:0]
		zero := true
		for _, fi := range comp.FDs {
			y := ext[fi].Diff(e.d.lhs[fi]).Intersect(comp.Relevant)
			if !y.IsEmpty() {
				zero = false
			}
			key = appendUint64(key, uint64(y))
		}
		if zero {
			hits++
			continue
		}
		stripe := &e.stripes[int(c)%memoStripes]
		stripe.Lock()
		m := e.memoAtK(c)
		v, ok := m[string(key)]
		stripe.Unlock()
		if !ok {
			evals++
			l2, p := an.SubsetCover(comp.Clusters, ext, comp.Relevant)
			v = compVal{len2: int32(l2), pairs: int32(p)}
			stripe.Lock()
			if len(m) >= memoCap {
				clear(m)
			}
			m[string(key)] = v
			stripe.Unlock()
		} else {
			hits++
		}
		dLen2 += int64(v.len2 - e.d.baseLen2[c])
		dPairs += int64(v.pairs - e.d.basePairs[c])
	}
	e.evals.Add(evals)
	e.memoHits.Add(hits)
	return dLen2, dPairs
}

// memoAt1 returns component c's single-FD memo table, creating it on first
// use. Caller holds c's stripe.
func (e *Evaluator) memoAt1(c int32) map[relation.AttrSet]compVal {
	if e.memo1[c] == nil {
		e.memo1[c] = make(map[relation.AttrSet]compVal)
	}
	return e.memo1[c]
}

// memoAtK is memoAt1 for multi-FD components.
func (e *Evaluator) memoAtK(c int32) map[string]compVal {
	if e.memoK[c] == nil {
		e.memoK[c] = make(map[string]compVal)
	}
	return e.memoK[c]
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

// appendUint64 appends v little-endian.
func appendUint64(b []byte, v uint64) []byte {
	return append(b,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
