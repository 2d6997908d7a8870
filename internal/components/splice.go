package components

import (
	"sort"

	"relatrust/internal/conflict"
	"relatrust/internal/relation"
)

// SpliceInfo describes how a mutation batch turned one analyzed instance
// into the next, in the vocabulary the decomposition needs: which clusters
// survived unchanged (and where they moved), which are gone or rewritten,
// and how tuple positions were renumbered. The live mutation tier
// (internal/live) produces it as a byproduct of splicing the cluster
// arenas.
type SpliceInfo struct {
	// OldToNew[fi][ci] is the new-analysis index of FD fi's old cluster ci
	// when the cluster survived with identical membership, -1 when it
	// vanished or changed. Every cluster of a component untouched by the
	// batch must map (a changed cluster dirties its component).
	OldToNew [][]int32
	// OldDirtyTuples holds, per old cluster that vanished or changed, one
	// representative member in OLD tuple numbering — enough to find the
	// component each such cluster belonged to.
	OldDirtyTuples []int32
	// Dirty lists the new-analysis clusters that are new or changed.
	Dirty []conflict.ClusterRef
	// OldPos[t] is tuple t's position in the old instance, or -1 when the
	// batch inserted it. Deletes renumber by swap-remove, so positions of
	// untouched tuples may still move; OldPos is the complete new→old map.
	OldPos []int32
}

// SpliceEvaluator derives the evaluator of a mutated instance's analysis
// from its predecessor without re-decomposing the whole hypergraph: only
// the components touched by the batch (holding a changed cluster, or
// connected to one by a new cluster) are re-grouped by union–find and get
// fresh base responses; every other component keeps its id, its base
// response, and — the expensive part — its memoized per-extension cover
// responses, alias-shared with the old evaluator under shared stripe
// locks. The old evaluator remains fully usable (in-flight sweeps finish
// against their snapshot).
//
// Rebuilt components take over the freed ids in order of first appearance
// in (FD, cluster) order; when merges leave ids over, dead slots remain as
// tombstones (zero Component) skipped by Components() and absent from
// compsOf, so they are never evaluated.
//
// NewEvaluator's cold build is the degenerate case: an empty predecessor
// and every cluster of the analysis dirty.
//
// The second return value is the number of old components invalidated by
// the batch (their memoized state discarded) — the live tier's
// components_dirtied observability counter.
func SpliceEvaluator(old *Evaluator, an *conflict.Analysis, info SpliceInfo) (*Evaluator, int) {
	od := old.d
	newN := len(info.OldPos)

	// Tuple→component in new numbering, still pointing at old ids.
	compOf := make([]int32, newN)
	for t, op := range info.OldPos {
		if op >= 0 {
			compOf[t] = od.compOf[op]
		} else {
			compOf[t] = -1
		}
	}

	// Dirty components: those that owned a vanished/changed cluster, plus
	// those a new/changed cluster now touches (it may bridge previously
	// separate components).
	dirty := make([]bool, len(od.Comps))
	for _, t := range info.OldDirtyTuples {
		if c := od.compOf[t]; c >= 0 {
			dirty[c] = true
		}
	}
	for _, ref := range info.Dirty {
		for _, t := range an.ClusterTuples(int(ref.FD), int(ref.Cluster)) {
			if c := compOf[t]; c >= 0 {
				dirty[c] = true
			}
		}
	}

	// The clusters to re-group: the dirty components' surviving clusters
	// (remapped to new indices) plus the batch's new/changed clusters, in
	// ascending (FD, cluster) order, so each rebuilt component's cluster
	// list comes out in global construction order.
	var refs []conflict.ClusterRef
	for c := range od.Comps {
		if !dirty[c] {
			continue
		}
		for _, ref := range od.Comps[c].Clusters {
			if ni := info.OldToNew[int(ref.FD)][int(ref.Cluster)]; ni >= 0 {
				refs = append(refs, conflict.ClusterRef{FD: ref.FD, Cluster: ni})
			}
		}
	}
	refs = append(refs, info.Dirty...)
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].FD != refs[j].FD {
			return refs[i].FD < refs[j].FD
		}
		return refs[i].Cluster < refs[j].Cluster
	})

	// Union–find restricted to the re-grouped clusters' tuples.
	parent := make([]int32, newN)
	for i := range parent {
		parent[i] = -1
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
	prev := conflict.ClusterRef{FD: -1, Cluster: -1}
	for _, ref := range refs {
		if ref == prev {
			continue
		}
		prev = ref
		g := an.ClusterTuples(int(ref.FD), int(ref.Cluster))
		for _, t := range g {
			if parent[t] == -1 {
				parent[t] = t
			}
		}
		r := find(g[0])
		for _, t := range g[1:] {
			if rt := find(t); rt != r {
				parent[rt] = r
			}
		}
	}

	// Freed ids, ascending, for the rebuilt groups to take over.
	var free []int32
	for c := range od.Comps {
		if dirty[c] {
			free = append(free, int32(c))
		}
	}

	nd := &Decomposition{
		compsOf: make([][]int32, len(od.lhs)),
		lhs:     od.lhs,
		compOf:  compOf,
	}
	newLen := len(od.Comps)
	idOf := make(map[int32]int32) // union-find root → new component id
	nextFree := 0
	prev = conflict.ClusterRef{FD: -1, Cluster: -1}
	var rebuilt []int32
	// Size pass: assign ids in first-appearance order before touching
	// nd.Comps, so the slice is allocated once.
	for _, ref := range refs {
		if ref == prev {
			continue
		}
		prev = ref
		r := find(an.ClusterTuples(int(ref.FD), int(ref.Cluster))[0])
		if _, ok := idOf[r]; ok {
			continue
		}
		var id int32
		if nextFree < len(free) {
			id = free[nextFree]
			nextFree++
		} else {
			id = int32(newLen)
			newLen++
		}
		idOf[r] = id
		rebuilt = append(rebuilt, id)
	}

	nd.Comps = make([]Component, newLen)
	nd.baseLen2 = make([]int32, newLen)
	nd.basePairs = make([]int32, newLen)
	nd.baseLen2S = od.baseLen2S
	nd.basePairsS = od.basePairsS
	nd.alive = od.alive - len(free) + len(rebuilt)

	// Survivors: same id, clusters remapped, base and tuple stats carried
	// over. Tombstones from earlier splices stay zero slots.
	for c := range od.Comps {
		if dirty[c] || len(od.Comps[c].Clusters) == 0 {
			continue
		}
		src := &od.Comps[c]
		cl := make([]conflict.ClusterRef, len(src.Clusters))
		for i, ref := range src.Clusters {
			ni := info.OldToNew[int(ref.FD)][int(ref.Cluster)]
			if ni < 0 {
				panic("components: splice lost a cluster of an untouched component")
			}
			cl[i] = conflict.ClusterRef{FD: ref.FD, Cluster: ni}
		}
		nd.Comps[c] = Component{Clusters: cl, FDs: src.FDs, Tuples: src.Tuples, Relevant: src.Relevant}
		nd.baseLen2[c] = od.baseLen2[c]
		nd.basePairs[c] = od.basePairs[c]
	}
	// Retire the dirty components' tuples and base contributions; rebuilt
	// groups re-claim theirs below.
	for t, c := range compOf {
		if c >= 0 && dirty[c] {
			compOf[t] = -1
		}
	}
	for _, c := range free {
		nd.baseLen2S -= int64(od.baseLen2[c])
		nd.basePairsS -= int64(od.basePairs[c])
	}

	// Rebuilt components: cluster lists in construction order, then their
	// tuple counts, Relevant sets and base responses.
	prev = conflict.ClusterRef{FD: -1, Cluster: -1}
	for _, ref := range refs {
		if ref == prev {
			continue
		}
		prev = ref
		id := idOf[find(an.ClusterTuples(int(ref.FD), int(ref.Cluster))[0])]
		comp := &nd.Comps[id]
		comp.Clusters = append(comp.Clusters, ref)
		if len(comp.FDs) == 0 || comp.FDs[len(comp.FDs)-1] != ref.FD {
			comp.FDs = append(comp.FDs, ref.FD)
		}
	}
	width := an.In.Schema.Width()
	cols := make([][]int32, width)
	for a := 0; a < width; a++ {
		cols[a], _ = an.In.Codes(a)
	}
	full := relation.FullSet(width)
	for _, id := range rebuilt {
		comp := &nd.Comps[id]
		var first int32 = -1
		for _, ref := range comp.Clusters {
			for _, t := range an.ClusterTuples(int(ref.FD), int(ref.Cluster)) {
				if compOf[t] == id {
					continue
				}
				compOf[t] = id
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
		l2, p := an.SubsetCover(comp.Clusters, nil, comp.Relevant)
		nd.baseLen2[id] = int32(l2)
		nd.basePairs[id] = int32(p)
		nd.baseLen2S += int64(l2)
		nd.basePairsS += int64(p)
	}

	// compsOf and largest: one pass over all live components, ascending, so
	// each per-FD list comes out sorted.
	for c := range nd.Comps {
		comp := &nd.Comps[c]
		if len(comp.Clusters) == 0 {
			continue
		}
		for _, fi := range comp.FDs {
			nd.compsOf[fi] = append(nd.compsOf[fi], int32(c))
		}
		if comp.Tuples > nd.largest {
			nd.largest = comp.Tuples
		}
		nd.tuples += comp.Tuples
	}

	ev := &Evaluator{
		d:       nd,
		stripes: old.stripes,
		// Fixed-size so concurrent stripes never reallocate the slices;
		// the maps themselves are created lazily under their stripe.
		memo1:  make([]map[relation.AttrSet]compVal, newLen),
		memoK:  make([]map[string]compVal, newLen),
		affect: make(map[uint64][]int32),
	}
	// Survivors keep their memo tables by reference — safe because both
	// evaluators lock the same shared stripe for the same component id.
	for c := range od.Comps {
		if !dirty[c] {
			ev.memo1[c] = old.memo1[c]
			ev.memoK[c] = old.memoK[c]
		}
	}
	return ev, len(free)
}
