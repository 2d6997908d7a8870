package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// clonePartition returns an owned deep copy of pt, detached from any
// partitioner scratch.
func clonePartition(pt Partition) Partition {
	return Partition{Tuples: slices.Clone(pt.Tuples), Offsets: slices.Clone(pt.Offsets)}
}

// strippedVia computes the stripped partition of X by a from-scratch
// BeginAll + RefineSet pass — the oracle RefineStripped must agree with.
func strippedVia(p *Partitioner, x AttrSet) Partition {
	p.BeginAll()
	p.RefineSet(x)
	pt := p.Partition()
	out := Partition{Offsets: []int32{0}}
	for gi := 0; gi < pt.NumGroups(); gi++ {
		g := pt.Group(gi)
		if len(g) < 2 {
			continue
		}
		out.Tuples = append(out.Tuples, g...)
		out.Offsets = append(out.Offsets, int32(len(out.Tuples)))
	}
	return clonePartition(out)
}

// canonPartition renders a partition as a canonical class set: classes
// sorted internally and by first element, so two partitions with the
// same classes in different encounter orders compare equal.
func canonPartition(pt Partition) [][]int32 {
	out := make([][]int32, 0, pt.NumGroups())
	for gi := 0; gi < pt.NumGroups(); gi++ {
		g := append([]int32(nil), pt.Group(gi)...)
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func samePartition(a, b Partition) bool {
	ca, cb := canonPartition(a), canonPartition(b)
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if len(ca[i]) != len(cb[i]) {
			return false
		}
		for j := range ca[i] {
			if ca[i][j] != cb[i][j] {
				return false
			}
		}
	}
	return true
}

// randPartitionInstance mirrors the duplicate-heavy shapes of the
// discovery oracle tests: few distinct values per column, so partitions
// carry real multi-tuple classes at several levels.
func randPartitionInstance(rng *rand.Rand) *Instance {
	width := 3 + rng.Intn(4)
	names := make([]string, width)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	in := NewInstance(MustSchema(names...))
	n := 2 + rng.Intn(40)
	for t := 0; t < n; t++ {
		tp := make(Tuple, width)
		for a := range tp {
			tp[a] = Const(fmt.Sprintf("v%d", rng.Intn(2+rng.Intn(3))))
		}
		_ = in.Append(tp)
	}
	return in
}

// TestQuickRefineStrippedMatchesRefineSet: refining the stripped π(X) by
// a equals the from-scratch stripped partition of X ∪ {a} across random
// shapes, seeds, parents and attributes, a ∈ X included.
func TestQuickRefineStrippedMatchesRefineSet(t *testing.T) {
	f := func(seed int64, xRaw, aRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randPartitionInstance(rng)
		width := in.Schema.Width()
		x := AttrSet(xRaw) & FullSet(width)
		if x.IsEmpty() {
			x = NewAttrSet(0)
		}
		a := int(aRaw) % width
		p := NewPartitioner(in)
		px := strippedVia(p, x)
		got := p.RefineStripped(px, a)
		want := strippedVia(p, x.Add(a))
		return samePartition(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRefineStrippedIsOwned: the result survives subsequent partitioner
// calls that overwrite the scratch buffers — the property the store
// relies on — and refining the current partition leaves it intact.
func TestRefineStrippedIsOwned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := randPartitionInstance(rng)
	p := NewPartitioner(in)
	p.BeginAll()
	p.Refine(0)
	cur := clonePartition(p.Partition())
	got := p.RefineStripped(p.Partition(), 1) // px aliases the current partition
	if !samePartition(p.Partition(), cur) {
		t.Fatal("RefineStripped disturbed the current partition")
	}
	if want := strippedVia(p, NewAttrSet(0, 1)); !samePartition(got, want) {
		t.Fatal("refining the current partition gave the wrong classes")
	}
	snap := clonePartition(got)
	// Churn every scratch path: refinement, split, and another refinement.
	p.BeginAll()
	p.RefineSet(FullSet(in.Schema.Width()))
	if in.N() > 0 {
		all := make([]int32, in.N())
		for i := range all {
			all[i] = int32(i)
		}
		_ = p.Split(all, 0)
	}
	_ = p.RefineStripped(got, 2)
	if !samePartition(got, snap) {
		t.Fatal("RefineStripped result aliases partitioner scratch")
	}
}

// TestRefineStrippedEmptyAndSingletonParents: an empty parent yields an
// empty partition, and a parent of one-tuple classes yields no class.
func TestRefineStrippedEmptyAndSingletonParents(t *testing.T) {
	in := NewInstance(MustSchema("A", "B"))
	_ = in.Append(Tuple{Const("1"), Const("2")})
	_ = in.Append(Tuple{Const("1"), Const("2")})
	p := NewPartitioner(in)
	empty := Partition{Offsets: []int32{0}}
	if got := p.RefineStripped(empty, 0); got.NumGroups() != 0 || got.Len() != 0 {
		t.Errorf("refining the empty partition gave %d groups", got.NumGroups())
	}
	singles := Partition{Tuples: []int32{0, 1}, Offsets: []int32{0, 1, 2}}
	if got := p.RefineStripped(singles, 1); got.NumGroups() != 0 || got.Len() != 0 {
		t.Errorf("refining singleton classes gave %d groups", got.NumGroups())
	}
}

func TestPartitionStoreLevelEviction(t *testing.T) {
	s := NewPartitionStore()
	one := Partition{Tuples: []int32{0, 1}, Offsets: []int32{0, 2}}
	s.Put(NewAttrSet(0), one)
	s.Put(NewAttrSet(1), one)
	s.Put(NewAttrSet(0, 1), one)
	s.Put(NewAttrSet(0, 2), one)
	if s.Len() != 4 || s.Peak() != 4 {
		t.Fatalf("len=%d peak=%d, want 4/4", s.Len(), s.Peak())
	}
	// Re-putting an existing key must not inflate the counters.
	s.Put(NewAttrSet(0), one)
	if s.Len() != 4 || s.Peak() != 4 {
		t.Fatalf("re-put inflated counters: len=%d peak=%d", s.Len(), s.Peak())
	}
	s.EvictLevel(1)
	if s.Len() != 2 {
		t.Fatalf("len=%d after evicting level 1, want 2", s.Len())
	}
	if _, ok := s.Get(NewAttrSet(0)); ok {
		t.Fatal("evicted partition still served")
	}
	if _, ok := s.Get(NewAttrSet(0, 1)); !ok {
		t.Fatal("level-2 partition lost by level-1 eviction")
	}
	if s.Peak() != 4 {
		t.Fatalf("peak=%d after eviction, want the high-water 4", s.Peak())
	}
}

// BenchmarkPartitionRefineStripped vs BenchmarkPartitionRefineLevel
// measure the two ways of building one level-3 partition: refining the
// cached stripped parent π({0,1}) by attribute 2 against a from-scratch
// RefineSet of {0,1,2}.
func benchPartitionInstance(b *testing.B) (*Instance, AttrSet, int) {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	names := make([]string, 8)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	in := NewInstance(MustSchema(names...))
	for t := 0; t < 4000; t++ {
		tp := make(Tuple, len(names))
		for a := range tp {
			tp[a] = Const(fmt.Sprintf("v%d", rng.Intn(6)))
		}
		_ = in.Append(tp)
	}
	return in, NewAttrSet(0, 1), 2
}

func BenchmarkPartitionRefineStripped(b *testing.B) {
	in, x, a := benchPartitionInstance(b)
	p := NewPartitioner(in)
	px := strippedVia(p, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.RefineStripped(px, a)
	}
}

func BenchmarkPartitionRefineLevel(b *testing.B) {
	in, x, a := benchPartitionInstance(b)
	p := NewPartitioner(in)
	union := x.Add(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.BeginAll()
		p.RefineSet(union)
		_ = p.Partition()
	}
}
