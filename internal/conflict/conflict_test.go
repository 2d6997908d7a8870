package conflict

import (
	"math/rand"
	"testing"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/testkit"
)

// TestPaperFigure2Table replays the table of Figures 2-3: for each FD
// modification, the δP value (with α = min{|R|−1,|Σ|} = 2) reported by the
// paper.
func TestPaperFigure2Table(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	a := New(in, sigma)

	ext := func(y0, y1 relation.AttrSet) []relation.AttrSet {
		return []relation.AttrSet{y0, y1}
	}
	C := func(names ...int) relation.AttrSet { return relation.NewAttrSet(names...) }
	alpha := 2

	cases := []struct {
		name   string
		ext    []relation.AttrSet
		deltaP int
	}{
		{"A->B, C->D", nil, 4},
		{"CA->B, C->D", ext(C(2), 0), 2},
		{"DA->B, C->D", ext(C(3), 0), 2},
		{"A->B, AC->D", ext(0, C(0)), 4},
		{"A->B, BC->D", ext(0, C(1)), 4},
		{"CA->B, AC->D", ext(C(2), C(0)), 2},
	}
	for _, tc := range cases {
		got := a.CoverSize(tc.ext) * alpha
		if got != tc.deltaP {
			t.Errorf("%s: δP = %d, want %d", tc.name, got, tc.deltaP)
		}
	}
}

func TestCoverIsVertexCover(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	a := New(in, sigma)
	edges := testkit.Edges(in, sigma)
	cover := a.Cover(nil)
	if !testkit.IsVertexCover(edges, cover) {
		t.Fatalf("cover %v misses an edge of %v", cover, edges)
	}
}

func TestNoViolationsMeansEmptyCover(t *testing.T) {
	in := testkit.Build([]string{"A", "B"}, [][]string{
		{"1", "x"}, {"1", "x"}, {"2", "y"},
	})
	a := New(in, fd.MustParseSet(in.Schema, "A->B"))
	if a.CoverSize(nil) != 0 {
		t.Error("satisfied instance must have an empty cover")
	}
	if len(a.DiffSets(10)) != 0 {
		t.Error("no difference sets expected")
	}
}

// TestCoverTwoApproxProperty checks on random instances that the cover is
// (a) a genuine vertex cover of the pairwise-defined conflict graph and
// (b) at most twice an exact minimum vertex cover.
func TestCoverTwoApproxProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 120; trial++ {
		in := testkit.RandomInstance(rng, 6+rng.Intn(5), 4, 2+rng.Intn(2))
		sigma := testkit.RandomFDs(rng, 4, 1+rng.Intn(2), 2)
		a := New(in, sigma)
		edges := testkit.Edges(in, sigma)
		cover := a.Cover(nil)
		if !testkit.IsVertexCover(edges, cover) {
			t.Fatalf("trial %d: not a vertex cover\n%s\nΣ=%v cover=%v edges=%v",
				trial, in, sigma, cover, edges)
		}
		opt := testkit.MinVertexCover(edges)
		if len(cover) > 2*opt {
			t.Fatalf("trial %d: |cover|=%d > 2·OPT=%d", trial, len(cover), 2*opt)
		}
		if opt == 0 && len(cover) != 0 {
			t.Fatalf("trial %d: nonempty cover with no edges", trial)
		}
	}
}

// TestCoverSubgraphForExtensions checks the subgraph property the Analysis
// exploits: covers computed via cluster refinement for an extension vector
// equal covers computed from a fresh Analysis of the extended FD set.
func TestCoverSubgraphForExtensions(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 80; trial++ {
		width := 4
		in := testkit.RandomInstance(rng, 8, width, 2)
		sigma := testkit.RandomFDs(rng, width, 2, 2)
		a := New(in, sigma)

		// Random extension vector.
		ext := make([]relation.AttrSet, len(sigma))
		for i, f := range sigma {
			for b := 0; b < width; b++ {
				if b != f.RHS && !f.LHS.Contains(b) && rng.Intn(3) == 0 {
					ext[i] = ext[i].Add(b)
				}
			}
		}
		extended := make(fd.Set, len(sigma))
		for i, f := range sigma {
			g, err := f.Extend(ext[i])
			if err != nil {
				t.Fatal(err)
			}
			extended[i] = g
		}
		fresh := New(in, extended)

		edges := testkit.Edges(in, extended)
		refined := a.Cover(ext)
		direct := fresh.Cover(nil)
		if !testkit.IsVertexCover(edges, refined) {
			t.Fatalf("trial %d: refined cover %v misses an edge of Σ'=%v", trial, refined, extended)
		}
		if !testkit.IsVertexCover(edges, direct) {
			t.Fatalf("trial %d: direct cover %v misses an edge", trial, direct)
		}
		opt := testkit.MinVertexCover(edges)
		if len(refined) > 2*opt {
			t.Fatalf("trial %d: refined cover %d > 2·OPT %d", trial, len(refined), opt)
		}
	}
}

func TestDiffSetsMatchPairwiseDefinition(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	a := New(in, sigma)
	ds := a.DiffSets(0)
	// Paper: difference sets of (t1,t2), (t2,t3), (t3,t4) are BD, AD, BCD.
	want := map[relation.AttrSet]int{
		relation.NewAttrSet(1, 3):    1, // BD
		relation.NewAttrSet(0, 3):    1, // AD
		relation.NewAttrSet(1, 2, 3): 1, // BCD
	}
	if len(ds) != len(want) {
		t.Fatalf("got %d difference sets, want %d: %v", len(ds), len(want), ds)
	}
	for _, d := range ds {
		if want[d.Attrs] != len(d.Edges) {
			t.Errorf("diffset %v has %d edges, want %d", d.Attrs, len(d.Edges), want[d.Attrs])
		}
	}
}

func TestDiffSetsSortedByCount(t *testing.T) {
	in := testkit.Build([]string{"A", "B", "C"}, [][]string{
		{"1", "x", "same"}, {"1", "y", "same"}, // diff {B}
		{"2", "x", "1"}, {"2", "y", "2"}, // diff {B,C}
		{"3", "x", "1"}, {"3", "y", "2"}, // diff {B,C}
	})
	a := New(in, fd.MustParseSet(in.Schema, "A->B"))
	ds := a.DiffSets(0)
	if len(ds) != 2 {
		t.Fatalf("got %d diffsets", len(ds))
	}
	if ds[0].Attrs != relation.NewAttrSet(1, 2) || len(ds[0].Edges) != 2 {
		t.Errorf("first diffset should be {B,C} with 2 edges, got %v×%d", ds[0].Attrs, len(ds[0].Edges))
	}
}

func TestDiffSetsCapLimitsEnumeration(t *testing.T) {
	// One cluster with 6×6 cross pairs = 36 edges; cap at 5.
	rows := make([][]string, 0, 12)
	for i := 0; i < 6; i++ {
		rows = append(rows, []string{"k", "x", itoa(i)})
		rows = append(rows, []string{"k", "y", itoa(i + 10)})
	}
	in := testkit.Build([]string{"A", "B", "C"}, rows)
	a := New(in, fd.MustParseSet(in.Schema, "A->B"))
	total := 0
	for _, d := range a.DiffSets(5) {
		total += len(d.Edges)
	}
	if total > 5 {
		t.Errorf("cap exceeded: %d edges sampled", total)
	}
	if total == 0 {
		t.Error("sampling returned nothing")
	}
}

func TestDiffSetsDedupAcrossFDs(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	a := New(in, sigma)
	seen := map[Edge]int{}
	for _, d := range a.DiffSets(0) {
		for _, e := range d.Edges {
			seen[e]++
		}
	}
	for e, c := range seen {
		if c > 1 {
			t.Errorf("edge %v appears %d times across difference sets", e, c)
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for ; i > 0; i /= 10 {
		b = append([]byte{byte('0' + i%10)}, b...)
	}
	return string(b)
}
