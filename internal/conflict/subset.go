package conflict

// Component-restricted cover queries. internal/components decomposes the
// conflict hypergraph into connected components (tuple-disjoint sets of
// violation clusters) and evaluates the two cover passes per component;
// this file exposes the cluster structure it needs and SubsetCover, which
// runs the global queries' pass driver over one component's clusters. The
// global cover() is exactly recovered from the restricted results: epoch
// marks never cross components (their tuple sets are disjoint), so pass-1
// pairs and pass-2 cover members computed per component sum to the global
// counts, and the 2·|M| certificate fallback applied to the sums
// reproduces the global decision. See the package doc of
// internal/components for the full argument.

import "relatrust/internal/relation"

// ClusterRef names one violation cluster: cluster Cluster of FD FD, in the
// base analysis' deterministic construction order.
type ClusterRef struct {
	FD, Cluster int32
}

// Clusters lists every violation cluster in FD-major construction order.
// The slice is shared with the analysis and its forks and must not be
// modified.
func (a *Analysis) Clusters() []ClusterRef { return a.all }

// ClusterTuples returns the tuple indices of cluster ci of FD fi. The
// returned slice aliases the shared immutable cluster arena and must not
// be modified.
func (a *Analysis) ClusterTuples(fi, ci int) []int32 { return a.clusters[fi][ci] }

// SubsetCover runs both passes of cover() restricted to the given clusters
// and returns the pass-2 cover length and the pass-1 matching size. The
// extension attributes of each cluster's FD are additionally intersected
// with relevant before refining: callers pass the attributes on which the
// clusters' tuples actually differ, so refining by an attribute every
// tuple agrees on — a partition no-op — is skipped without changing any
// group.
//
// For a set of clusters closed under tuple sharing (a connected component
// of the conflict hypergraph), the results equal the component's
// contribution to the global cover() passes bit for bit; min(coverLen,
// 2·pairs) summed over all components is CoverSize. Callers own the usual
// single-goroutine scratch contract.
func (a *Analysis) SubsetCover(refs []ClusterRef, ext []relation.AttrSet, relevant relation.AttrSet) (coverLen, pairs int) {
	pairs = a.passes(refs, ext, relevant, true)
	return len(a.coverScratch), pairs
}
