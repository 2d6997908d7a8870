package fd

import (
	"math/rand"
	"testing"

	"relatrust/internal/relation"
)

func buildInstance(t *testing.T, header []string, rows [][]string) *relation.Instance {
	t.Helper()
	in := relation.NewInstance(relation.MustSchema(header...))
	for _, r := range rows {
		if err := in.AppendConsts(r...); err != nil {
			t.Fatal(err)
		}
	}
	return in
}

func TestParseSet(t *testing.T) {
	set, err := ParseSet(schemaABCD, "A->B; C->D")
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 {
		t.Fatalf("len = %d", len(set))
	}
	if set.Format(schemaABCD) != "A->B; C->D" {
		t.Errorf("Format = %q", set.Format(schemaABCD))
	}
}

func TestParseSetMultiRHSAndComments(t *testing.T) {
	set, err := ParseSet(schemaABCD, "# leading comment\nA->B,C\nB -> D")
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 3 {
		t.Fatalf("multi-RHS expansion: len = %d, want 3", len(set))
	}
	if _, err := ParseSet(schemaABCD, "# only a comment"); err == nil {
		t.Error("comment-only spec must fail (no FDs)")
	}
}

func TestSatisfiedByAndFirstViolation(t *testing.T) {
	in := buildInstance(t, []string{"A", "B"}, [][]string{
		{"1", "x"}, {"1", "x"}, {"2", "y"},
	})
	set := MustParseSet(in.Schema, "A->B")
	if !set.SatisfiedBy(in) {
		t.Error("instance satisfies A->B")
	}
	in2 := buildInstance(t, []string{"A", "B"}, [][]string{
		{"1", "x"}, {"2", "y"}, {"1", "z"},
	})
	v := set.FirstViolation(in2)
	if v == nil {
		t.Fatal("violation expected")
	}
	if v.T1 != 0 || v.T2 != 2 || v.FD != 0 {
		t.Errorf("violation = %+v", v)
	}
}

func TestViolationsEnumeratesAllPairs(t *testing.T) {
	in := buildInstance(t, []string{"A", "B"}, [][]string{
		{"1", "x"}, {"1", "y"}, {"1", "z"},
	})
	set := MustParseSet(in.Schema, "A->B")
	vs := set.Violations(in, 0)
	if len(vs) != 3 { // all three pairs differ on B
		t.Fatalf("got %d violations, want 3: %v", len(vs), vs)
	}
	if got := set.Violations(in, 2); len(got) != 2 {
		t.Errorf("cap ignored: %d", len(got))
	}
}

func TestViolationsMatchesPairwiseDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		in := buildRandom(rng, 8, 3, 2)
		set := Set{MustNew(relation.NewAttrSet(0), 1), MustNew(relation.NewAttrSet(2), 0)}
		got := map[[3]int]bool{}
		for _, v := range set.Violations(in, 0) {
			got[[3]int{v.T1, v.T2, v.FD}] = true
		}
		for i := 0; i < in.N(); i++ {
			for j := i + 1; j < in.N(); j++ {
				for fi, f := range set {
					want := f.Violates(in.Tuples[i], in.Tuples[j])
					if got[[3]int{i, j, fi}] != want {
						t.Fatalf("trial %d: pair (%d,%d) fd %d: enumerated=%v pairwise=%v",
							trial, i, j, fi, !want, want)
					}
				}
			}
		}
		if set.SatisfiedBy(in) != (len(got) == 0) {
			t.Fatalf("trial %d: SatisfiedBy inconsistent with Violations", trial)
		}
	}
}

func buildRandom(rng *rand.Rand, n, width, dom int) *relation.Instance {
	names := []string{"A", "B", "C", "D", "E"}[:width]
	in := relation.NewInstance(relation.MustSchema(names...))
	for t := 0; t < n; t++ {
		row := make([]string, width)
		for a := range row {
			row[a] = string(rune('a' + rng.Intn(dom)))
		}
		_ = in.AppendConsts(row...)
	}
	return in
}

func TestSetCloneEqual(t *testing.T) {
	set := MustParseSet(schemaABCD, "A->B; C->D")
	cp := set.Clone()
	if !set.Equal(cp) {
		t.Error("clone differs")
	}
	cp[0] = MustNew(relation.NewAttrSet(0, 2), 1)
	if set.Equal(cp) {
		t.Error("mutated clone still equal")
	}
	if set.Equal(set[:1]) {
		t.Error("length mismatch must not be equal")
	}
}

func TestAttrsUsed(t *testing.T) {
	set := MustParseSet(schemaABCD, "A->B; C->D")
	if set.AttrsUsed() != relation.NewAttrSet(0, 1, 2, 3) {
		t.Errorf("AttrsUsed = %v", set.AttrsUsed())
	}
}

// AttrsUsed returns the union of attributes mentioned by any FD.
func (set Set) AttrsUsed() relation.AttrSet {
	var s relation.AttrSet
	for _, f := range set {
		s = s.Union(f.Attrs())
	}
	return s
}

// TestAlpha: α = min{|R|−1, |Σ|}, clamped to at least 1.
func TestAlpha(t *testing.T) {
	one := MustParseSet(schemaABCD, "A->B")
	three := MustParseSet(schemaABCD, "A->B; B->C; C->D")
	for _, c := range []struct {
		set   Set
		width int
		want  int
	}{{one, 4, 1}, {three, 4, 3}, {three, 3, 2}, {three, 1, 1}, {nil, 4, 1}} {
		if got := c.set.Alpha(c.width); got != c.want {
			t.Errorf("%v.Alpha(%d) = %d, want %d", c.set, c.width, got, c.want)
		}
	}
}
