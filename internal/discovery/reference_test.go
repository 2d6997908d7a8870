package discovery

// The from-scratch reference helpers the oracle tests pin Stream against.
// They repartition the instance per call and never touch a
// PartitionStore, so they stay an independent computation of what the
// miner derives from cached partitions.

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
// repartitions the instance per call, and finds each plurality with
// Split. The miner computes the same count with Partitioner.Plurality on
// cached stripped partitions (g3Split); the oracle tests pin the two
// equal.
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
// (reference implementation, in the stripped representation; the miner's
// partitionFor does the same with relation.Partitioner.RefineStripped).
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
