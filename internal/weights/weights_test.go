package weights

import (
	"math"
	"math/rand"
	"testing"

	"relatrust/internal/relation"
	"relatrust/internal/testkit"
)

func sample() *relation.Instance {
	return testkit.Build([]string{"A", "B", "C"}, [][]string{
		{"1", "x", "k0"},
		{"1", "y", "k1"},
		{"2", "x", "k2"},
		{"2", "y", "k3"},
	})
}

func TestAttrCount(t *testing.T) {
	w := AttrCount{}
	if w.Weight(relation.NewAttrSet(0, 2)) != 2 {
		t.Error("weight of a 2-set must be 2")
	}
	if w.Weight(0) != 0 {
		t.Error("weight of empty set must be 0")
	}
	if w.Name() != "attr-count" {
		t.Error("name")
	}
}

func TestDistinctCount(t *testing.T) {
	in := sample()
	w := NewDistinctCount(in)
	if got := w.Weight(relation.NewAttrSet(0)); got != 2 {
		t.Errorf("|Π_A| = %v, want 2", got)
	}
	if got := w.Weight(relation.NewAttrSet(2)); got != 4 {
		t.Errorf("|Π_C| = %v, want 4 (near-key costs more)", got)
	}
	if got := w.Weight(relation.NewAttrSet(0, 1)); got != 4 {
		t.Errorf("|Π_AB| = %v, want 4", got)
	}
	if w.Weight(0) != 0 {
		t.Error("empty set must be free")
	}
	// memoized second call
	if w.Weight(relation.NewAttrSet(0)) != 2 {
		t.Error("cache broke the result")
	}
}

func TestEntropy(t *testing.T) {
	in := sample()
	w := NewEntropy(in)
	if got := w.Weight(relation.NewAttrSet(0)); math.Abs(got-1) > 1e-12 {
		t.Errorf("H(A) = %v, want 1 bit", got)
	}
	if got := w.Weight(relation.NewAttrSet(2)); math.Abs(got-2) > 1e-12 {
		t.Errorf("H(C) = %v, want 2 bits", got)
	}
	if w.Weight(0) != 0 {
		t.Error("empty set must be free")
	}
}

// TestMonotonicity is the Func contract: X ⊆ Y ⟹ w(X) ≤ w(Y), checked on
// random instances for every implementation.
func TestMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := testkit.RandomInstance(rng, 30, 5, 3)
	funcs := []Func{AttrCount{}, NewDistinctCount(in), NewEntropy(in)}
	for trial := 0; trial < 200; trial++ {
		x := relation.AttrSet(rng.Intn(32))
		y := x.Union(relation.AttrSet(rng.Intn(32)))
		for _, w := range funcs {
			wx, wy := w.Weight(x), w.Weight(y)
			if wx > wy+1e-9 {
				t.Fatalf("%s not monotone: w(%v)=%v > w(%v)=%v", w.Name(), x, wx, y, wy)
			}
			if wx < 0 {
				t.Fatalf("%s negative: w(%v)=%v", w.Name(), x, wx)
			}
		}
	}
}

func TestByName(t *testing.T) {
	src := NewSource(sample())
	for _, name := range []string{"attr-count", "count", "", "distinct-count", "distinct", "entropy", "mdl"} {
		if _, err := ByName(name, src); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
		if _, err := ByName(name, nil); err != nil {
			t.Errorf("ByName(%q, nil): %v", name, err)
		}
	}
	if _, err := ByName("nope", src); err == nil {
		t.Error("unknown name must fail")
	}
}

func TestMDL(t *testing.T) {
	in := sample()
	w := NewMDL(in)
	if w.Weight(0) != 0 {
		t.Error("empty set must be free")
	}
	// |Π_A| = 2 < |Π_C| = 4 ⇒ near-keys cost more, same ordering as
	// distinct-count.
	if w.Weight(relation.NewAttrSet(0)) >= w.Weight(relation.NewAttrSet(2)) {
		t.Error("MDL should price the near-key attribute higher")
	}
	if w.Name() != "mdl" {
		t.Error("name")
	}
}

func TestMDLMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := testkit.RandomInstance(rng, 25, 5, 3)
	w := NewMDL(in)
	for trial := 0; trial < 150; trial++ {
		x := relation.AttrSet(rng.Intn(32))
		y := x.Union(relation.AttrSet(rng.Intn(32)))
		if w.Weight(x) > w.Weight(y)+1e-9 {
			t.Fatalf("MDL not monotone: w(%v) > w(%v)", x, y)
		}
	}
}

// TestMDLIgnoresUnusedCodes installs code columns whose code space has
// gaps, as the live tier's grow-only dictionaries do: the value bits
// count the codes a column holds, so MDL prices sets as over freshly
// encoded columns.
func TestMDLIgnoresUnusedCodes(t *testing.T) {
	fresh := sample()
	gapped := sample()
	for a := 0; a < gapped.Schema.Width(); a++ {
		codes, n := fresh.Codes(a)
		spread := make([]int32, len(codes))
		for i, c := range codes {
			spread[i] = 3 * c // codes 1, 2, 4, 5, … never occur
		}
		gapped.SetCodes(a, spread, 3*n)
	}
	want, got := NewMDL(fresh), NewMDL(gapped)
	for _, y := range []relation.AttrSet{relation.NewAttrSet(0), relation.NewAttrSet(1, 2)} {
		if got.Weight(y) != want.Weight(y) {
			t.Errorf("MDL(%v) = %v over gapped columns, %v over fresh ones", y, got.Weight(y), want.Weight(y))
		}
	}
}
