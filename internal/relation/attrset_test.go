package relation

import (
	"math/bits"
	"sort"
	"testing"
	"testing/quick"
)

// minAttr returns the smallest attribute index in s, or -1 if s is empty.
func minAttr(s AttrSet) int {
	if s == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(s))
}

// properSubsetOf reports whether s ⊂ t.
func properSubsetOf(s, t AttrSet) bool { return s != t && s.SubsetOf(t) }

func TestAttrSetBasics(t *testing.T) {
	s := NewAttrSet(0, 3, 5)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for _, a := range []int{0, 3, 5} {
		if !s.Contains(a) {
			t.Errorf("Contains(%d) = false, want true", a)
		}
	}
	for _, a := range []int{1, 2, 4, 63} {
		if s.Contains(a) {
			t.Errorf("Contains(%d) = true, want false", a)
		}
	}
	if minAttr(s) != 0 || s.Max() != 5 {
		t.Errorf("Min/Max = %d/%d, want 0/5", minAttr(s), s.Max())
	}
	if got := s.String(); got != "{0,3,5}" {
		t.Errorf("String = %q", got)
	}
}

func TestAttrSetEmpty(t *testing.T) {
	var s AttrSet
	if !s.IsEmpty() || s.Len() != 0 {
		t.Fatal("zero AttrSet should be empty")
	}
	if minAttr(s) != -1 || s.Max() != -1 {
		t.Errorf("Min/Max of empty = %d/%d, want -1/-1", minAttr(s), s.Max())
	}
	if len(s.Attrs()) != 0 {
		t.Errorf("Attrs of empty = %v", s.Attrs())
	}
	if !s.SubsetOf(NewAttrSet(1)) {
		t.Error("empty set should be subset of everything")
	}
	if properSubsetOf(s, s) {
		t.Error("set is not a proper subset of itself")
	}
}

func TestAttrSetAddRemove(t *testing.T) {
	s := NewAttrSet(2)
	s = s.Add(2) // idempotent
	if s.Len() != 1 {
		t.Fatalf("Add not idempotent: %v", s)
	}
	s = s.Remove(2)
	if !s.IsEmpty() {
		t.Fatalf("Remove failed: %v", s)
	}
	if s.Remove(99) != s {
		t.Error("Remove out-of-range should be a no-op")
	}
}

func TestAttrSetAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(64) should panic")
		}
	}()
	NewAttrSet(64)
}

func TestFullSet(t *testing.T) {
	if FullSet(0) != 0 {
		t.Error("FullSet(0) should be empty")
	}
	if got := FullSet(3); got != NewAttrSet(0, 1, 2) {
		t.Errorf("FullSet(3) = %v", got)
	}
	if FullSet(64).Len() != 64 {
		t.Errorf("FullSet(64).Len() = %d", FullSet(64).Len())
	}
}

func TestAttrSetSetAlgebraProperties(t *testing.T) {
	// Union/Intersect/Diff agree with element-wise membership.
	f := func(x, y uint16) bool {
		a, b := AttrSet(x), AttrSet(y)
		for i := 0; i < 16; i++ {
			u := a.Union(b).Contains(i) == (a.Contains(i) || b.Contains(i))
			n := a.Intersect(b).Contains(i) == (a.Contains(i) && b.Contains(i))
			d := a.Diff(b).Contains(i) == (a.Contains(i) && !b.Contains(i))
			if !u || !n || !d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAttrSetSubsetProperties(t *testing.T) {
	f := func(x, y uint16) bool {
		a, b := AttrSet(x), AttrSet(y)
		// a∩b ⊆ a ⊆ a∪b, and SubsetOf is consistent with Diff.
		if !a.Intersect(b).SubsetOf(a) || !a.SubsetOf(a.Union(b)) {
			return false
		}
		return a.SubsetOf(b) == a.Diff(b).IsEmpty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAttrSetAttrsRoundTrip(t *testing.T) {
	f := func(x uint32) bool {
		a := AttrSet(x)
		back := NewAttrSet(a.Attrs()...)
		if back != a {
			return false
		}
		// Attrs is sorted ascending.
		attrs := a.Attrs()
		for i := 1; i < len(attrs); i++ {
			if attrs[i-1] >= attrs[i] {
				return false
			}
		}
		return len(attrs) == a.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAttrSetForEachEarlyStop(t *testing.T) {
	s := NewAttrSet(1, 2, 3)
	count := 0
	s.ForEach(func(a int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("ForEach visited %d attrs after early stop, want 2", count)
	}
}

func TestSortAttrSets(t *testing.T) {
	sets := []AttrSet{NewAttrSet(0, 1), NewAttrSet(5), NewAttrSet(2), NewAttrSet(0, 1, 2)}
	SortAttrSets(sets)
	want := []AttrSet{NewAttrSet(2), NewAttrSet(5), NewAttrSet(0, 1), NewAttrSet(0, 1, 2)}
	for i := range want {
		if sets[i] != want[i] {
			t.Fatalf("sorted[%d] = %v, want %v", i, sets[i], want[i])
		}
	}
}

func TestAttrSetNames(t *testing.T) {
	s := MustSchema("A", "B", "C")
	if got := NewAttrSet(0, 2).Names(s); got != "A,C" {
		t.Errorf("Names = %q, want A,C", got)
	}
}

// SortAttrSets sorts sets by cardinality, then numerically; useful for
// deterministic output in tests and reports.
func SortAttrSets(sets []AttrSet) {
	sort.Slice(sets, func(i, j int) bool {
		if sets[i].Len() != sets[j].Len() {
			return sets[i].Len() < sets[j].Len()
		}
		return sets[i] < sets[j]
	})
}
