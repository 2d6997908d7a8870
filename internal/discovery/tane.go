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
// Two TANE techniques keep the lattice walk cheap. Level-k partitions are
// built by the partition product π(X)·π(Y) of their two level-(k−1)
// prefix-join parents (relation.Partitioner.Product) instead of refining
// from scratch, and candidate generation is the matching prefix join.
// Partitions live in a relation.PartitionStore — shareable across runs via
// session.Engine — and each level is evicted once the next is built, so
// peak retention is two lattice levels plus the single-attribute row, not
// the whole lattice.
//
// Stream is the only entry point: it hands each FD to a callback as it is
// found, exact or approximate. Callers that want a list collect it (the
// relatrust.Discoverer facade caps and sorts). The historical from-scratch
// helpers (partitionBySet, refineStripped, Error) are retained as the
// reference implementations the oracle tests pin Stream against.
package discovery

import (
	"relatrust/internal/fd"
	"relatrust/internal/relation"
)

// stripped is a stripped partition: equivalence classes of size ≥ 2.
// Classes appear in refinement encounter order (deterministic) and share
// one backing arena per partition. It remains the representation of the
// reference helpers below; the streaming miner uses relation.Partition.
type stripped struct {
	classes [][]int32
	err     int // Σ(|class|−1): tuples that would need to merge targets
}

// Holds reports whether X → A holds exactly on the instance, via the
// partition-error criterion.
func Holds(in *relation.Instance, f fd.FD) bool {
	p := relation.NewPartitioner(in)
	px := partitionBySet(p, f.LHS)
	pxa := refineStripped(p, px, f.RHS)
	return px.err == pxa.err
}

// Error returns the number of tuples that must be ignored for X → A to
// hold (the g3-style count used by approximate-FD work): for each X-class,
// all tuples not in the class's plurality A-value.
//
// This is the from-scratch reference: it rebuilds a partitioner and
// repartitions the instance per call. The miner computes the same count
// by splitting cached stripped partitions (g3Split); the oracle tests pin
// the two equal.
func Error(in *relation.Instance, f fd.FD) int {
	p := relation.NewPartitioner(in)
	p.BeginAll()
	p.RefineSet(f.LHS)
	pt := p.Partition()
	errs := 0
	for gi := 0; gi < pt.NumGroups(); gi++ {
		g := pt.Group(gi)
		if len(g) < 2 {
			continue
		}
		sp := p.Split(g, f.RHS)
		maxc := 0
		for si := 0; si < sp.NumGroups(); si++ {
			if l := len(sp.Group(si)); l > maxc {
				maxc = l
			}
		}
		errs += len(g) - maxc
	}
	return errs
}

// partitionBySet computes the stripped partition of X by code-based
// refinement from the whole tuple set (reference implementation).
func partitionBySet(p *relation.Partitioner, x relation.AttrSet) stripped {
	p.BeginAll()
	p.RefineSet(x)
	pt := p.Partition()
	total := 0
	for gi := 0; gi < pt.NumGroups(); gi++ {
		if g := pt.Group(gi); len(g) >= 2 {
			total += len(g)
		}
	}
	var s stripped
	arena := make([]int32, 0, total)
	for gi := 0; gi < pt.NumGroups(); gi++ {
		g := pt.Group(gi)
		if len(g) < 2 {
			continue
		}
		start := len(arena)
		arena = append(arena, g...)
		s.classes = append(s.classes, arena[start:len(arena):len(arena)])
		s.err += len(g) - 1
	}
	return s
}

// refineStripped computes the stripped partition of X∪{a} from the
// stripped partition of X: each class splits by a's codes, and classes
// collapsing to singletons drop out. Singleton classes of π(X) never
// produce multi-tuple classes, so working on the stripped form is exact
// (reference implementation; the miner derives level-k partitions by
// Product instead).
func refineStripped(p *relation.Partitioner, parent stripped, a int) stripped {
	total := 0
	for _, c := range parent.classes {
		total += len(c)
	}
	var s stripped
	arena := make([]int32, 0, total)
	for _, c := range parent.classes {
		sp := p.Split(c, a)
		for si := 0; si < sp.NumGroups(); si++ {
			g := sp.Group(si)
			if len(g) < 2 {
				continue
			}
			start := len(arena)
			arena = append(arena, g...)
			s.classes = append(s.classes, arena[start:len(arena):len(arena)])
			s.err += len(g) - 1
		}
	}
	return s
}

func hasSubsetLHS(sets []relation.AttrSet, x relation.AttrSet) bool {
	for _, s := range sets {
		if s.SubsetOf(x) {
			return true
		}
	}
	return false
}
