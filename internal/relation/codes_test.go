package relation

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randInstance builds a small instance with duplicate-heavy constant
// domains and a sprinkling of shared and distinct variables — the value
// mix every partition map in the system must handle.
func randInstance(rng *rand.Rand, width, n int) *Instance {
	names := make([]string, width)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	in := NewInstance(MustSchema(names...))
	var g VarGen
	shared := []Value{g.Fresh(), g.Fresh()}
	for t := 0; t < n; t++ {
		tp := make(Tuple, width)
		for a := range tp {
			switch rng.Intn(10) {
			case 0:
				tp[a] = shared[rng.Intn(len(shared))]
			case 1:
				tp[a] = g.Fresh()
			default:
				tp[a] = Const(string(rune('a' + rng.Intn(3))))
			}
		}
		_ = in.Append(tp)
	}
	return in
}

// stringGroups is the legacy string-keyed partition: projection key →
// members in tuple order.
func stringGroups(in *Instance, tuples []int32, x AttrSet) map[string][]int32 {
	groups := make(map[string][]int32)
	for _, t := range tuples {
		groups[in.Project(int(t), x)] = append(groups[in.Project(int(t), x)], t)
	}
	return groups
}

// TestQuickCodesMatchProjectKeys: per-attribute codes agree exactly with
// single-attribute projection keys, and the distinct-code count matches.
func TestQuickCodesMatchProjectKeys(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randInstance(rng, 3+rng.Intn(3), 1+rng.Intn(30))
		for a := 0; a < in.Schema.Width(); a++ {
			codes, n := in.Codes(a)
			distinct := make(map[string]bool)
			for i := 0; i < in.N(); i++ {
				distinct[in.Tuples[i][a].Key()] = true
				for j := i + 1; j < in.N(); j++ {
					want := in.Tuples[i][a].Equal(in.Tuples[j][a])
					if (codes[i] == codes[j]) != want {
						return false
					}
				}
			}
			if int(n) != len(distinct) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickPartitionerMatchesStringGroups: refining the full tuple set by
// an arbitrary attribute set yields exactly the legacy string-keyed groups,
// with members in ascending tuple order within each group.
func TestQuickPartitionerMatchesStringGroups(t *testing.T) {
	f := func(seed int64, setRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randInstance(rng, 4+rng.Intn(3), 1+rng.Intn(40))
		x := AttrSet(setRaw) & FullSet(in.Schema.Width())
		p := NewPartitioner(in)
		p.BeginAll()
		p.RefineSet(x)
		pt := p.Partition()

		all := make([]int32, in.N())
		for i := range all {
			all[i] = int32(i)
		}
		want := stringGroups(in, all, x)

		if pt.NumGroups() != len(want) || pt.Len() != in.N() {
			return false
		}
		for gi := 0; gi < pt.NumGroups(); gi++ {
			g := pt.Group(gi)
			ref, ok := want[in.Project(int(g[0]), x)]
			if !ok || len(ref) != len(g) {
				return false
			}
			for i := range g {
				if g[i] != ref[i] { // same members, same (ascending) order
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickSplitMatchesStringGroups: Split on an arbitrary subset of
// tuples agrees with string-keyed grouping of that subset and leaves the
// current partition intact.
func TestQuickSplitMatchesStringGroups(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randInstance(rng, 3+rng.Intn(3), 2+rng.Intn(30))
		var g []int32
		for t := 0; t < in.N(); t++ {
			if rng.Intn(2) == 0 {
				g = append(g, int32(t))
			}
		}
		a := rng.Intn(in.Schema.Width())
		p := NewPartitioner(in)
		p.BeginAll()
		sp := p.Split(g, a)
		want := stringGroups(in, g, NewAttrSet(a))
		if sp.NumGroups() != len(want) {
			return false
		}
		for si := 0; si < sp.NumGroups(); si++ {
			sub := sp.Group(si)
			ref := want[in.Project(int(sub[0]), NewAttrSet(a))]
			if len(ref) != len(sub) {
				return false
			}
			for i := range sub {
				if sub[i] != ref[i] {
					return false
				}
			}
		}
		// Split must not disturb the current partition.
		return p.Partition().Len() == in.N() && p.Partition().NumGroups() == min(1, in.N())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickPluralityMatchesSplit: Plurality equals the largest group of
// Split for random groups (empty and singleton ones included), with calls
// to both interleaved on one partitioner, and leaves the current
// partition intact.
func TestQuickPluralityMatchesSplit(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randInstance(rng, 3+rng.Intn(3), 1+rng.Intn(30))
		p := NewPartitioner(in)
		p.BeginAll()
		p.Refine(rng.Intn(in.Schema.Width()))
		before := clonePartition(p.Partition())
		for q := 0; q < 8; q++ {
			var g []int32
			switch rng.Intn(4) {
			case 0: // empty
			case 1:
				g = []int32{int32(rng.Intn(in.N()))}
			default:
				for t := 0; t < in.N(); t++ {
					if rng.Intn(2) == 0 {
						g = append(g, int32(t))
					}
				}
			}
			a := rng.Intn(in.Schema.Width())
			sp := p.Split(g, a)
			want := 0
			for si := 0; si < sp.NumGroups(); si++ {
				want = max(want, len(sp.Group(si)))
			}
			if got := p.Plurality(g, a); got != want {
				t.Logf("seed %d: Plurality(%v, %d) = %d, Split's largest group %d", seed, g, a, got, want)
				return false
			}
		}
		after := p.Partition()
		return slices.Equal(after.Tuples, before.Tuples) && slices.Equal(after.Offsets, before.Offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCodesAppendInvalidates: appending tuples after a column was built
// rebuilds it; in-place mutation requires InvalidateCodes.
func TestCodesAppendInvalidates(t *testing.T) {
	in := NewInstance(MustSchema("A", "B"))
	_ = in.AppendConsts("x", "1")
	_ = in.AppendConsts("y", "2")
	codes, n := in.Codes(0)
	if len(codes) != 2 || n != 2 {
		t.Fatalf("codes=%v n=%d", codes, n)
	}
	_ = in.AppendConsts("x", "3")
	codes, n = in.Codes(0)
	if len(codes) != 3 || n != 2 || codes[0] != codes[2] {
		t.Fatalf("after append: codes=%v n=%d", codes, n)
	}
	in.Tuples[1][0] = Const("x")
	in.InvalidateCodes()
	codes, n = in.Codes(0)
	if n != 1 || codes[0] != codes[1] || codes[1] != codes[2] {
		t.Fatalf("after mutate+invalidate: codes=%v n=%d", codes, n)
	}
}

// TestMaxVarIDCache: MaxVarID is cached like the code columns — appends
// are seen, in-place mutation is seen after InvalidateCodes — and a
// VarGenAfter generator continues past it.
func TestMaxVarIDCache(t *testing.T) {
	in := NewInstance(MustSchema("A", "B"))
	_ = in.AppendConsts("x", "1")
	if got := in.MaxVarID(); got != 0 {
		t.Fatalf("const-only instance: MaxVarID %d", got)
	}
	g := VarGen{next: 6}
	_ = in.Append(Tuple{g.Fresh(), Const("2")}) // ?v7
	if got := in.MaxVarID(); got != 7 {
		t.Fatalf("after append: MaxVarID %d, want 7", got)
	}
	in.Tuples[0][1] = g.Fresh() // ?v8
	in.InvalidateCodes()
	if got := in.MaxVarID(); got != 8 {
		t.Fatalf("after mutate+invalidate: MaxVarID %d, want 8", got)
	}
	vg := VarGenAfter(in)
	if v := vg.Fresh(); v.VarID() != 9 {
		t.Fatalf("VarGenAfter: first fresh variable %v, want ?v9", v)
	}
}

// TestPartitionerEmpty: zero-tuple seeds and empty instances are handled.
func TestPartitionerEmpty(t *testing.T) {
	in := NewInstance(MustSchema("A"))
	p := NewPartitioner(in)
	p.BeginAll()
	p.Refine(0)
	if got := p.Partition().NumGroups(); got != 0 {
		t.Fatalf("empty instance: %d groups", got)
	}
	_ = in.AppendConsts("x")
	p2 := NewPartitioner(in)
	p2.Begin(nil)
	p2.Refine(0)
	if got := p2.Partition().NumGroups(); got != 0 {
		t.Fatalf("empty seed: %d groups", got)
	}
	sp := p2.Split(nil, 0)
	if sp.NumGroups() != 0 {
		t.Fatalf("empty split: %d groups", sp.NumGroups())
	}
}
