package gen

import (
	"context"
	"testing"

	"relatrust/internal/discovery"
	"relatrust/internal/fd"
	"relatrust/internal/relation"
)

func TestCensusSpecShape(t *testing.T) {
	s := CensusSpec()
	if s.Schema.Width() != 34 {
		t.Fatalf("census width = %d, want 34 (the paper uses 34 attributes)", s.Schema.Width())
	}
	if len(s.Domains) != 34 {
		t.Fatal("domains mismatch")
	}
	for i, d := range s.Domains {
		if d < 2 {
			t.Errorf("attribute %d has degenerate domain %d", i, d)
		}
	}
}

func TestSubSpec(t *testing.T) {
	s := SubSpec(CensusSpec(), 10)
	if s.Schema.Width() != 10 || len(s.Domains) != 10 {
		t.Fatal("SubSpec shape")
	}
	if SubSpec(CensusSpec(), 0).Schema.Width() != 34 {
		t.Error("width 0 should mean full schema")
	}
}

func TestGeneratePlantsFDsExactly(t *testing.T) {
	spec := CensusSpec()
	sigma := fd.Set{PaperFD(spec)}
	in, err := Generate(spec, sigma, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if in.N() != 2000 {
		t.Fatalf("n = %d", in.N())
	}
	if !sigma.SatisfiedBy(in) {
		t.Fatal("planted FD does not hold")
	}
}

func TestGeneratedFDBreaksWhenWeakened(t *testing.T) {
	// Removing LHS attributes from the planted FD must create violations —
	// otherwise the perturbation experiments are vacuous.
	spec := CensusSpec()
	f := PaperFD(spec)
	in, err := Generate(spec, fd.Set{f}, 3000, 2)
	if err != nil {
		t.Fatal(err)
	}
	weak := fd.Set{{LHS: relation.NewAttrSet(0), RHS: f.RHS}}
	if weak.SatisfiedBy(in) {
		t.Fatal("weakened FD still holds; derivation is not using all LHS attributes")
	}
}

func TestGenerateChainedFDs(t *testing.T) {
	spec := SubSpec(CensusSpec(), 8)
	sigma := fd.Set{
		fd.MustNew(relation.NewAttrSet(0, 1), 2), // A,B -> C
		fd.MustNew(relation.NewAttrSet(2, 3), 4), // C,D -> E (depends on first)
	}
	in, err := Generate(spec, sigma, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !sigma.SatisfiedBy(in) {
		t.Fatal("chained planted FDs do not hold")
	}
}

func TestGenerateRejectsSharedRHS(t *testing.T) {
	spec := SubSpec(CensusSpec(), 6)
	sigma := fd.Set{
		fd.MustNew(relation.NewAttrSet(0), 2),
		fd.MustNew(relation.NewAttrSet(1), 2),
	}
	if _, err := Generate(spec, sigma, 10, 0); err == nil {
		t.Fatal("shared RHS must be rejected")
	}
}

func TestGenerateRejectsCycle(t *testing.T) {
	spec := SubSpec(CensusSpec(), 6)
	sigma := fd.Set{
		fd.MustNew(relation.NewAttrSet(0, 1), 2),
		fd.MustNew(relation.NewAttrSet(2, 3), 1),
	}
	if _, err := Generate(spec, sigma, 10, 0); err == nil {
		t.Fatal("derivation cycle must be rejected")
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	spec := SubSpec(CensusSpec(), 8)
	sigma := fd.Set{fd.MustNew(relation.NewAttrSet(0, 1), 5)}
	a, _ := Generate(spec, sigma, 100, 7)
	b, _ := Generate(spec, sigma, 100, 7)
	for i := range a.Tuples {
		if !a.Tuples[i].Equal(b.Tuples[i]) {
			t.Fatal("same seed produced different data")
		}
	}
	c, _ := Generate(spec, sigma, 100, 8)
	same := true
	for i := range a.Tuples {
		if !a.Tuples[i].Equal(c.Tuples[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestDiscoveryFindsPlantedFD(t *testing.T) {
	// End-to-end sanity: the discovery substrate recovers a planted FD
	// (restricted to the relevant attributes to keep the lattice small).
	spec := SubSpec(CensusSpec(), 6)
	f := fd.MustNew(relation.NewAttrSet(0, 1), 5)
	in, err := Generate(spec, fd.Set{f}, 800, 4)
	if err != nil {
		t.Fatal(err)
	}
	var found fd.Set
	err = discovery.Stream(context.Background(), in, discovery.StreamOptions{MaxLHS: 2, Attrs: relation.NewAttrSet(0, 1, 5)},
		func(g discovery.Found) error {
			found = append(found, g.FD)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	ok := false
	for _, g := range found {
		if g.RHS == 5 && g.LHS.SubsetOf(f.LHS) {
			ok = true
		}
	}
	if !ok {
		t.Errorf("planted FD not rediscovered; got %v", found)
	}
}
