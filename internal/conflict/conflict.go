// Package conflict implements the conflict graph of an instance and an FD
// set (Definition 6 of the paper), the greedy 2-approximate minimum vertex
// cover used throughout the repair algorithms, and difference sets with
// edge multiplicities (Section 5.2).
//
// Conflict graphs of badly-violated FDs can have Θ(n²) edges, so the
// implementation never materializes the full edge set. The greedy
// 2-approximation of minimum vertex cover is the endpoint set of a maximal
// matching; within one LHS-cluster the conflict graph is complete
// multipartite with the RHS subgroups as parts, so a maximal matching is
// found cluster-by-cluster in time linear in the number of violating
// tuples.
//
// A key structural fact drives the design: for every Σ′ ∈ S(Σ) (LHS
// extensions only), a tuple pair violating an extended FD XiYi→Ai also
// violates the original Xi→Ai — agreement on XiYi implies agreement on Xi.
// Hence the conflict graph of any candidate Σ′ is a subgraph of the
// conflict graph of Σ, and an Analysis built once from (I, Σ) can answer
// vertex-cover queries for every extension vector by refining its stored
// clusters instead of rescanning the instance.
//
// # Concurrency model
//
// An Analysis is single-goroutine: cover queries run against per-Analysis
// epoch-versioned scratch. Concurrent evaluation (the A* evaluation
// workers in internal/search) uses Fork: a forked Analysis shares the
// instance, its immutable code columns and dictionary, and the cluster
// arenas — all read-only after New — while owning private partitioner
// scratch, matched marks, and cover buffers, so queries on different
// forks never touch the same mutable memory. Queries are deterministic:
// any fork returns bit-identical covers for the same extension vector.
// Release returns a fork's scratch to a pool shared by every fork of the
// same analysis, so a search run that repeatedly forks (one fork per
// worker, per search) allocates the scratch only once. The session engine
// (internal/session) pools whole analyses the same way across repair
// sessions: roots cached per FD set, forks handed out and recycled.
package conflict

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
)

// CoverStats counts cover-query refinement effort.
type CoverStats struct {
	// Queries counts cluster-refinement requests issued by cover, matching
	// and edge-sampling passes.
	Queries int64
	// Hits and ParentHits are always 0; they remain for callers that
	// still read them.
	Hits, ParentHits int64
	// RefineSteps counts single-attribute refinement passes executed.
	RefineSteps int64
}

// Add returns the field-wise sum, for aggregating per-worker stats.
func (s CoverStats) Add(o CoverStats) CoverStats {
	s.Queries += o.Queries
	s.Hits += o.Hits
	s.ParentHits += o.ParentHits
	s.RefineSteps += o.RefineSteps
	return s
}

// Sub returns the field-wise difference, for the effort between two
// snapshots.
func (s CoverStats) Sub(o CoverStats) CoverStats {
	s.Queries -= o.Queries
	s.Hits -= o.Hits
	s.ParentHits -= o.ParentHits
	s.RefineSteps -= o.RefineSteps
	return s
}

// CoverStats returns the refinement-effort counters accumulated since New,
// Fork or the last Release.
func (a *Analysis) CoverStats() CoverStats { return a.stats }

// Edge is one conflict-graph edge: a violating tuple pair (T1 < T2).
type Edge struct {
	T1, T2 int32
}

// Analysis holds the per-FD violation clusters of an instance with respect
// to a base FD set, and answers vertex-cover and difference-set queries for
// arbitrary LHS-extension vectors over that base set.
//
// An Analysis is immutable after New and safe for concurrent readers except
// for the scratch buffers used by Cover*; callers that share an Analysis
// across goroutines must give each goroutine its own Analysis.
type Analysis struct {
	In    *relation.Instance
	Sigma fd.Set

	// clusters[i] lists, for FD i, the groups of tuples that share the
	// original LHS projection and contain at least two distinct RHS
	// values. Only such groups can contribute violations for any
	// extension of FD i.
	clusters [][][]int32

	// protected, when set, steers pass-2 cover construction away from
	// the marked tuples (see CoverAvoiding).
	protected func(int32) bool

	// part groups tuples by dictionary codes; together with the
	// epoch-versioned scratch below it makes steady-state cover queries
	// allocation-free (no strings, no maps, no clearing passes).
	part         *relation.Partitioner
	matched      []int
	epoch        int
	seedScratch  []int32
	coverScratch []int32
	matchedList  []int32 // endpoints of the pass-1 matching, in pair order
	stats        CoverStats

	// forkPool recycles released forks across the forks of one analysis,
	// so repeated Fork/Release cycles (one per search run) reuse the
	// per-fork scratch instead of reallocating it.
	forkPool *sync.Pool
}

// New builds the analysis in O(|Σ|·n) expected time.
func New(in *relation.Instance, sigma fd.Set) *Analysis {
	return NewFiltered(in, sigma, nil)
}

// NewFiltered builds the analysis considering, for FD i, only the tuples
// accepted by filters[i] (nil filters, or a nil entry, accept everything).
// This is the hook conditional constraints use: a CFD is its embedded FD
// restricted to the tuples matching its pattern, and every cover and
// difference-set query then transparently respects the restriction.
func NewFiltered(in *relation.Instance, sigma fd.Set, filters []func(relation.Tuple) bool) *Analysis {
	a := &Analysis{
		In:       in,
		Sigma:    sigma,
		clusters: make([][][]int32, len(sigma)),
		matched:  make([]int, in.N()),
		part:     relation.NewPartitioner(in),
		forkPool: &sync.Pool{},
	}
	seed := make([]int32, 0, in.N())
	for fi, f := range sigma {
		var accept func(relation.Tuple) bool
		if filters != nil {
			accept = filters[fi]
		}
		seed = seed[:0]
		for t := 0; t < in.N(); t++ {
			if accept != nil && !accept(in.Tuples[t]) {
				continue
			}
			seed = append(seed, int32(t))
		}
		a.part.Begin(seed)
		a.part.RefineSet(f.LHS)
		pt := a.part.Partition()
		rhs, _ := in.Codes(f.RHS)
		// Keep groups of ≥2 tuples with ≥2 distinct RHS codes. Two passes:
		// the first sizes one arena exactly, so the kept cluster slices
		// share a backing array that never reallocates from under them.
		kept, total := make([]int32, 0, 64), 0
		for gi := 0; gi < pt.NumGroups(); gi++ {
			g := pt.Group(gi)
			if len(g) >= 2 && mixedRHS(g, rhs) {
				kept = append(kept, int32(gi))
				total += len(g)
			}
		}
		if len(kept) == 0 {
			continue
		}
		// Canonical cluster order: ascending by leading (minimum) tuple.
		// The partitioner emits groups in hierarchical refinement order,
		// which depends on the refinement path; sorting by the leading
		// tuple makes the cluster list a pure function of membership, so
		// incrementally spliced analyses (internal/live) reproduce it
		// exactly — including the order-sensitive capped samplers
		// (MatchingEdgeSample, DiffSets).
		sort.Slice(kept, func(i, j int) bool {
			return pt.Group(int(kept[i]))[0] < pt.Group(int(kept[j]))[0]
		})
		arena := make([]int32, 0, total)
		cl := make([][]int32, 0, len(kept))
		for _, gi := range kept {
			g := pt.Group(int(gi))
			start := len(arena)
			arena = append(arena, g...)
			cl = append(cl, arena[start:len(arena):len(arena)])
		}
		a.clusters[fi] = cl
	}
	return a
}

// NewFromClusters wraps externally maintained violation clusters in an
// Analysis without re-partitioning the instance. The caller (the live
// mutation tier) guarantees the clusters are exactly what NewFiltered
// would compute for (in, sigma): per FD, the LHS-projection groups with
// ≥2 tuples spanning ≥2 distinct RHS codes, members ascending, clusters
// in ascending order of leading member. The cluster slices are aliased,
// not copied; the caller must not mutate them while any fork of the
// analysis is live.
func NewFromClusters(in *relation.Instance, sigma fd.Set, clusters [][][]int32) *Analysis {
	return &Analysis{
		In:       in,
		Sigma:    sigma,
		clusters: clusters,
		matched:  make([]int, in.N()),
		part:     relation.NewPartitioner(in),
		forkPool: &sync.Pool{},
	}
}

// mixedRHS reports whether the group spans ≥2 distinct RHS codes.
func mixedRHS(g []int32, rhs []int32) bool {
	first := rhs[g[0]]
	for _, t := range g[1:] {
		if rhs[t] != first {
			return true
		}
	}
	return false
}

// N returns the number of tuples in the analyzed instance.
func (a *Analysis) N() int { return a.In.N() }

// Fork returns an Analysis answering the same queries as a, for use on a
// different goroutine. The fork shares everything immutable — the instance
// (and its code columns and dictionary, which are built once under the
// instance's mutex), the FD set, and the cluster arenas — and owns private
// epoch-versioned scratch (partitioner buffers, matched marks, cover and
// matching lists), so cover and matching queries on distinct forks are
// lock-free and never race. Query results are bit-identical across forks.
//
// Forks are recycled: Fork first tries the pool fed by Release, so a
// workload that forks repeatedly (a worker pool per search run) pays the
// scratch allocation only until the pool is warm. Forking a fork draws
// from the same pool.
func (a *Analysis) Fork() *Analysis {
	if f, _ := a.forkPool.Get().(*Analysis); f != nil {
		return f
	}
	return &Analysis{
		In:       a.In,
		Sigma:    a.Sigma,
		clusters: a.clusters,
		matched:  make([]int, a.In.N()),
		part:     relation.NewPartitioner(a.In),
		forkPool: a.forkPool,
	}
}

// Release returns an analysis obtained from Fork to the shared pool for
// reuse by a later Fork. The caller must not use the analysis afterwards.
// Its cover statistics are reset, so a recycled fork is handed out in the
// same state as a fresh one.
func (a *Analysis) Release() {
	a.protected = nil
	a.stats = CoverStats{}
	a.forkPool.Put(a)
}

// ViolatingTuples returns how many tuples participate in at least one
// violating cluster of the base FD set; useful for sizing reports.
func (a *Analysis) ViolatingTuples() int {
	seen := make([]bool, a.In.N())
	count := 0
	for _, cl := range a.clusters {
		for _, g := range cl {
			for _, t := range g {
				if !seen[t] {
					seen[t] = true
					count++
				}
			}
		}
	}
	return count
}

// CoverSize returns |C2opt(Σ′, I)| where Σ′ extends the base set by ext
// (ext[i] is appended to the LHS of FD i; a nil ext means Σ′ = Σ).
func (a *Analysis) CoverSize(ext []relation.AttrSet) int {
	return len(a.cover(ext))
}

// Cover returns the tuple indices of C2opt(Σ′, I) in increasing order.
func (a *Analysis) Cover(ext []relation.AttrSet) []int32 {
	c := append([]int32(nil), a.cover(ext)...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// CoverAvoiding returns a vertex cover that keeps tuples marked protected
// out of the cover whenever some valid cover of equal per-group structure
// allows it — used by pinned-cell repairs, where rewriting a protected
// tuple may be impossible. The 2-approximation certificate still applies.
func (a *Analysis) CoverAvoiding(ext []relation.AttrSet, protected func(int32) bool) []int32 {
	a.protected = protected
	defer func() { a.protected = nil }()
	return a.Cover(ext)
}

// cover computes a 2-approximate minimum vertex cover of the conflict
// graph of Σ′ in two passes over the violation clusters:
//
//  1. a maximal matching M — the classical certificate |VC_opt| ≥ |M| —
//     found by pairing unmatched tuples across RHS subgroups of each
//     refined group;
//  2. a sequential "all but the largest subgroup" cover: per refined
//     group, every not-yet-covered tuple outside the subgroup with the
//     most uncovered members joins the cover. This covers every edge of
//     the group and never adds more vertices than taking both endpoints
//     of the group's matched pairs, so it tracks the paper's worked
//     examples (which report minimum covers on small graphs) while
//     staying within the guarantee.
//
// The pass-2 cover is returned when it respects the 2·|M| certificate;
// otherwise the matched endpoints are the provable fallback. The returned
// slice aliases internal scratch; callers that retain it must copy (Cover
// does).
func (a *Analysis) cover(ext []relation.AttrSet) []int32 {
	matchedPairs := 0
	a.epoch++
	a.matchedList = a.matchedList[:0]
	for fi, f := range a.Sigma {
		y := a.extOf(ext, fi)
		for ci := range a.clusters[fi] {
			matchedPairs += a.matchCluster(fi, ci, f.RHS, y)
		}
	}

	a.epoch++
	a.coverScratch = a.coverScratch[:0]
	for fi, f := range a.Sigma {
		y := a.extOf(ext, fi)
		for ci := range a.clusters[fi] {
			a.coverCluster(fi, ci, f.RHS, y, a.protected)
		}
	}
	if len(a.coverScratch) <= 2*matchedPairs {
		return a.coverScratch
	}
	// Fallback preserving the provable factor 2: both endpoints of M,
	// recorded by pass 1 in matchedList. (Reading the pass-1 epoch marks
	// back out of a.matched here would be wrong — pass 2 overwrites them
	// with its own epoch, which made this fallback return a subset that
	// is not a vertex cover. Triggered only under adversarial cluster
	// overlap.)
	a.coverScratch = append(a.coverScratch[:0], a.matchedList...)
	return a.coverScratch
}

// extOf returns the extension attributes of FD fi beyond its own LHS.
func (a *Analysis) extOf(ext []relation.AttrSet, fi int) relation.AttrSet {
	if ext == nil {
		return 0
	}
	return ext[fi].Diff(a.Sigma[fi].LHS)
}

// MatchingSize returns the number of pairs in the maximal matching of the
// conflict graph of Σ′ (base set extended by ext). It is a lower bound on
// every vertex cover of that graph — any algorithm's, not just this
// package's — which makes it the right quantity for feasibility floors.
func (a *Analysis) MatchingSize(ext []relation.AttrSet) int {
	a.epoch++
	a.matchedList = a.matchedList[:0]
	pairs := 0
	for fi, f := range a.Sigma {
		y := a.extOf(ext, fi)
		for ci := range a.clusters[fi] {
			pairs += a.matchCluster(fi, ci, f.RHS, y)
		}
	}
	return pairs
}

// PermanentMatching returns the size of a maximal matching over the
// conflict edges that no LHS extension can ever resolve: pairs of tuples
// identical on every attribute except some FD's RHS. Multiplied by α it is
// a hard lower bound on δP(Σ′, I) for every Σ′ ∈ S(Σ) — if it exceeds τ,
// no τ-constrained repair exists and the search can return φ immediately
// instead of exhausting the state space.
func (a *Analysis) PermanentMatching() int {
	width := a.In.Schema.Width()
	ext := make([]relation.AttrSet, len(a.Sigma))
	for i, f := range a.Sigma {
		ext[i] = relation.FullSet(width).Diff(f.LHS).Remove(f.RHS)
	}
	return a.MatchingSize(ext)
}

// refineGroups refines cluster (fi, ci) by the extension attributes y,
// skipping tuples already marked in the current epoch. Groups come back in
// deterministic (refinement encounter) order; within one cluster they are
// disjoint, so processing order never affects which tuples end up matched
// or covered. The result aliases per-analysis scratch and stays valid
// across Split calls.
func (a *Analysis) refineGroups(fi, ci int, y relation.AttrSet) relation.Partition {
	a.stats.Queries++
	seed := a.seedScratch[:0]
	for _, t := range a.clusters[fi][ci] {
		if a.matched[t] != a.epoch {
			seed = append(seed, t)
		}
	}
	a.seedScratch = seed
	a.stats.RefineSteps += int64(y.Len())
	a.part.Begin(seed)
	a.part.RefineSet(y)
	return a.part.Partition()
}

// matchCluster greedily matches unmatched tuples across RHS subgroups of
// each refined group and returns the number of pairs matched.
func (a *Analysis) matchCluster(fi, ci int, rhs int, y relation.AttrSet) int {
	pt := a.refineGroups(fi, ci, y)
	pairs := 0
	for gi := 0; gi < pt.NumGroups(); gi++ {
		grp := pt.Group(gi)
		if len(grp) < 2 {
			continue
		}
		sp := a.part.Split(grp, rhs)
		if sp.NumGroups() < 2 {
			continue
		}
		// Complete multipartite matching: pair the lowest-subgroup entry
		// with the highest-subgroup entry until the remainder collapses
		// into a single subgroup (the flat partition layout is grouped by
		// subgroup already).
		flat, offs := sp.Tuples, sp.Offsets
		i, j := 0, len(flat)-1
		sgi, sgj := 0, sp.NumGroups()-1
		for i < j && sgi != sgj {
			a.matched[flat[i]] = a.epoch
			a.matched[flat[j]] = a.epoch
			a.matchedList = append(a.matchedList, flat[i], flat[j])
			pairs++
			i++
			j--
			for int32(i) >= offs[sgi+1] {
				sgi++
			}
			for int32(j) < offs[sgj] {
				sgj--
			}
		}
	}
	return pairs
}

// coverCluster adds, per refined group, every uncovered tuple outside one
// exempted subgroup to the cover scratch, marking them covered for
// subsequent clusters. The exempted subgroup is the one with the most
// uncovered members — or, when a protected predicate is supplied, the one
// sheltering the most protected tuples (ties broken by size, then by
// order), so pinned tuples stay out of the cover whenever a valid cover
// allows it.
func (a *Analysis) coverCluster(fi, ci int, rhs int, y relation.AttrSet, protected func(int32) bool) {
	pt := a.refineGroups(fi, ci, y)
	for gi := 0; gi < pt.NumGroups(); gi++ {
		grp := pt.Group(gi)
		if len(grp) < 2 {
			continue
		}
		sp := a.part.Split(grp, rhs)
		if sp.NumGroups() < 2 {
			continue
		}
		exempt := 0
		if protected == nil {
			for si := 1; si < sp.NumGroups(); si++ {
				if len(sp.Group(si)) > len(sp.Group(exempt)) {
					exempt = si
				}
			}
		} else {
			bestProt := -1
			for si := 0; si < sp.NumGroups(); si++ {
				sub := sp.Group(si)
				prot := 0
				for _, t := range sub {
					if protected(t) {
						prot++
					}
				}
				if prot > bestProt || (prot == bestProt && len(sub) > len(sp.Group(exempt))) {
					bestProt = prot
					exempt = si
				}
			}
		}
		for si := 0; si < sp.NumGroups(); si++ {
			if si == exempt {
				continue
			}
			for _, t := range sp.Group(si) {
				a.matched[t] = a.epoch
				a.coverScratch = append(a.coverScratch, t)
			}
		}
	}
}

// HasViolation reports whether Σ′ (base set extended by ext) still has any
// violating pair in the instance.
func (a *Analysis) HasViolation(ext []relation.AttrSet) bool {
	return a.CoverSize(ext) > 0
}

// MatchingEdgeSample returns up to cap edges of a maximal matching of the
// base conflict graph (cap <= 0 means all). The edges are globally
// vertex-disjoint, so for any Σ′ ∈ S(Σ) the edges of the sample still
// violating Σ′ form a matching of Σ′'s conflict graph — their count lower
// bounds every vertex cover of it. This powers the knapsack half of the
// A* heuristic.
func (a *Analysis) MatchingEdgeSample(cap int) []Edge {
	a.epoch++
	var out []Edge
	for fi, f := range a.Sigma {
		for ci := range a.clusters[fi] {
			out = a.matchClusterEdges(fi, ci, f.RHS, out, cap)
			if cap > 0 && len(out) >= cap {
				return out
			}
		}
	}
	return out
}

// matchClusterEdges is matchCluster collecting the matched pairs.
func (a *Analysis) matchClusterEdges(fi, ci int, rhs int, out []Edge, cap int) []Edge {
	pt := a.refineGroups(fi, ci, 0)
	for gi := 0; gi < pt.NumGroups(); gi++ {
		grp := pt.Group(gi)
		if len(grp) < 2 {
			continue
		}
		sp := a.part.Split(grp, rhs)
		if sp.NumGroups() < 2 {
			continue
		}
		flat, offs := sp.Tuples, sp.Offsets
		i, j := 0, len(flat)-1
		sgi, sgj := 0, sp.NumGroups()-1
		for i < j && sgi != sgj {
			t1, t2 := flat[i], flat[j]
			a.matched[t1] = a.epoch
			a.matched[t2] = a.epoch
			if t1 > t2 {
				t1, t2 = t2, t1
			}
			out = append(out, Edge{T1: t1, T2: t2})
			if cap > 0 && len(out) >= cap {
				return out
			}
			i++
			j--
			for int32(i) >= offs[sgi+1] {
				sgi++
			}
			for int32(j) < offs[sgj] {
				sgj--
			}
		}
	}
	return out
}

// DiffSet aggregates the conflict-graph edges that share one difference set
// (the attributes on which the edge's tuples disagree).
type DiffSet struct {
	Attrs relation.AttrSet
	Edges []Edge // sampled edges, deduplicated across FDs, capped
}

// Count returns the number of sampled edges carrying this difference set.
func (d DiffSet) Count() int { return len(d.Edges) }

// DiffSets enumerates conflict-graph edges of the base FD set, sampling at
// most capPerCluster edges per violation cluster (capPerCluster <= 0 means
// no cap — beware of quadratic blowup), deduplicates pairs that violate
// several FDs, and groups them by difference set. The result is sorted by
// descending edge count, then by attribute set, so selection heuristics and
// reports are deterministic.
//
// Sampling keeps every downstream use sound: difference sets and their edge
// counts feed the A* lower bound gc(S), and an undercounted bound is still
// a lower bound (Lemma 1's argument applies to any subset of the edges).
func (a *Analysis) DiffSets(capPerCluster int) []DiffSet {
	type agg struct {
		attrs relation.AttrSet
		edges []Edge
	}
	byAttrs := make(map[relation.AttrSet]*agg)
	seen := make(map[int64]bool)
	n := int64(a.In.N())
	for fi, f := range a.Sigma {
		for _, g := range a.clusters[fi] {
			a.sampleClusterEdges(g, f.RHS, capPerCluster, func(e Edge) {
				id := int64(e.T1)*n + int64(e.T2)
				if seen[id] {
					return
				}
				seen[id] = true
				d := a.In.Tuples[e.T1].DiffSet(a.In.Tuples[e.T2])
				ag, ok := byAttrs[d]
				if !ok {
					ag = &agg{attrs: d}
					byAttrs[d] = ag
				}
				ag.edges = append(ag.edges, e)
			})
		}
	}
	out := make([]DiffSet, 0, len(byAttrs))
	for _, ag := range byAttrs {
		out = append(out, DiffSet{Attrs: ag.attrs, Edges: ag.edges})
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Edges) != len(out[j].Edges) {
			return len(out[i].Edges) > len(out[j].Edges)
		}
		return out[i].Attrs < out[j].Attrs
	})
	return out
}

// sampleClusterEdges emits up to cap cross-subgroup pairs of one cluster.
// The sample leads with a maximal matching (vertex-disjoint pairs) so that
// matching-based budget tests over sampled edges are as sharp as the
// cluster allows — a sample of overlapping pairs would make every excluded
// difference set look cheap. Remaining combinations follow round-robin
// until the cap binds.
func (a *Analysis) sampleClusterEdges(g []int32, rhs int, cap int, emit func(Edge)) {
	sp := a.part.Split(g, rhs)
	if sp.NumGroups() < 2 {
		return
	}
	emitted := 0
	send := func(t1, t2 int32) bool {
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		emit(Edge{T1: t1, T2: t2})
		emitted++
		return cap > 0 && emitted >= cap
	}
	// Phase 1: a maximal matching via the two-pointer sweep over the
	// subgroup-ordered flat partition (same construction as matchCluster).
	flat, offs := sp.Tuples, sp.Offsets
	inMatching := make(map[[2]int32]bool)
	i, j := 0, len(flat)-1
	sgi, sgj := 0, sp.NumGroups()-1
	for i < j && sgi != sgj {
		t1, t2 := flat[i], flat[j]
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		inMatching[[2]int32{t1, t2}] = true
		if send(t1, t2) {
			return
		}
		i++
		j--
		for int32(i) >= offs[sgi+1] {
			sgi++
		}
		for int32(j) < offs[sgj] {
			sgj--
		}
	}
	// Phase 2: remaining cross pairs in deterministic round-robin order,
	// skipping the matched pairs already emitted.
	for round := 0; ; round++ {
		any := false
		for x := 0; x < sp.NumGroups(); x++ {
			for y := x + 1; y < sp.NumGroups(); y++ {
				sx, sy := sp.Group(x), sp.Group(y)
				ai := round % len(sx)
				bj := round / len(sx)
				if bj >= len(sy) {
					continue
				}
				any = true
				t1, t2 := sx[ai], sy[bj]
				if t1 > t2 {
					t1, t2 = t2, t1
				}
				if inMatching[[2]int32{t1, t2}] {
					continue
				}
				if send(t1, t2) {
					return
				}
			}
		}
		if !any {
			return
		}
	}
}

// EdgeCountExact returns the exact number of conflict-graph edges of the
// base set (sum over clusters of cross-subgroup pair counts, with pairs
// violating several FDs counted once per FD, as in the paper's |E|). It is
// O(|Σ|·n) and never enumerates pairs.
func (a *Analysis) EdgeCountExact() int64 {
	var total int64
	for fi, f := range a.Sigma {
		for _, g := range a.clusters[fi] {
			sp := a.part.Split(g, f.RHS)
			var sum, sq int64
			for si := 0; si < sp.NumGroups(); si++ {
				c := int64(len(sp.Group(si)))
				sum += c
				sq += c * c
			}
			total += (sum*sum - sq) / 2
		}
	}
	return total
}

// DescribeClusters renders a short human-readable summary, used by the CLI.
func (a *Analysis) DescribeClusters() string {
	var b strings.Builder
	for fi := range a.Sigma {
		total := 0
		for _, g := range a.clusters[fi] {
			total += len(g)
		}
		b.WriteString(a.Sigma[fi].String())
		b.WriteString(": ")
		fmt.Fprintf(&b, "%d violating clusters, %d tuples involved\n", len(a.clusters[fi]), total)
	}
	return b.String()
}
