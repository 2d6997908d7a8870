// Package discovery implements level-wise discovery of minimal functional
// dependencies from data, in the style of TANE (Huhtala et al., [9] in the
// paper). The paper's relative-trust story starts from FDs "automatically
// discovered from legacy data"; this package is that substrate, serving
// both the offline CLI and the POST /v1/discover endpoint.
//
// The implementation works on stripped partitions — the partition of the
// tuple set induced by an attribute set X, with singleton classes removed.
// X → A holds exactly when refining π(X) by A splits nothing, and its g3
// error (the minimum number of tuples to ignore for the FD to hold) is the
// per-class count of tuples outside the plurality A-value. Both facts are
// read off the stripped form directly.
//
// The lattice walk stays cheap in two ways. A level-k partition π(X) is
// built by refining one cached level-(k−1) parent, π(X − max X), by
// max X (relation.Partitioner.RefineStripped), not from scratch, and
// candidate generation is TANE's prefix join.
// Partitions live in a relation.PartitionStore — shareable across runs via
// session.Engine — and each level is evicted once the next is built, so
// peak retention is two lattice levels plus the single-attribute row, not
// the whole lattice. Level 1 and the top level (|X| = MaxLHS) are never
// evicted: they stay in the store for the next run over it.
//
// Stream is the only entry point: it hands each FD to a callback as it is
// found, exact or approximate, evaluating each level's candidates on
// GOMAXPROCS workers without changing the emitted order. Callers that
// want a list collect it (the relatrust.Discoverer facade caps and
// sorts). The from-scratch reference implementations the oracle tests
// pin Stream against (partitionBySet, refineStripped, Holds, Error) live
// in reference_test.go.
package discovery

import "relatrust/internal/relation"

// hasSubsetLHS reports whether any set in sets is a subset of x.
func hasSubsetLHS(sets []relation.AttrSet, x relation.AttrSet) bool {
	for _, s := range sets {
		if s.SubsetOf(x) {
			return true
		}
	}
	return false
}
