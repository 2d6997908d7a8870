package repair

import (
	"context"
	"math/rand"
	"testing"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/testkit"
)

func TestSampleDataRepairsDistinct(t *testing.T) {
	// One violating pair of A->B and a free attribute: repairs differ in
	// which cell they touch (B equalized, or A variablized, …).
	in := testkit.Build([]string{"A", "B", "C"}, [][]string{
		{"1", "x", "c0"}, {"1", "y", "c1"}, {"2", "z", "c2"},
	})
	sigma := fd.MustParseSet(in.Schema, "A->B")
	reps, err := SampleDataRepairs(context.Background(), in, sigma, 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) < 2 {
		t.Fatalf("expected ≥ 2 distinct repairs, got %d", len(reps))
	}
	sigs := map[string]bool{}
	for _, r := range reps {
		if !sigma.SatisfiedBy(r.Instance()) {
			t.Fatal("sampled repair violates Σ")
		}
		sig := repairSignature(r)
		if sigs[sig] {
			t.Fatalf("duplicate repair signature %q", sig)
		}
		sigs[sig] = true
	}
	// Sorted by ascending change count.
	for i := 1; i < len(reps); i++ {
		if reps[i].NumChanges() < reps[i-1].NumChanges() {
			t.Error("samples not sorted by change count")
		}
	}
}

func TestSampleDataRepairsValidInput(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	if _, err := SampleDataRepairs(context.Background(), in, sigma, 0, 1, nil); err == nil {
		t.Error("k=0 must fail")
	}
	reps, err := SampleDataRepairs(context.Background(), in, sigma, 3, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) == 0 {
		t.Fatal("no repairs sampled")
	}
}

func TestSampleSatisfiedInstanceOneRepair(t *testing.T) {
	in := testkit.Build([]string{"A", "B"}, [][]string{{"1", "x"}, {"2", "y"}})
	sigma := fd.MustParseSet(in.Schema, "A->B")
	reps, err := SampleDataRepairs(context.Background(), in, sigma, 5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || reps[0].NumChanges() != 0 {
		t.Fatalf("satisfied instance has exactly one (empty) repair, got %d", len(reps))
	}
}

func TestSampleVariableIdentityAbstraction(t *testing.T) {
	// Two runs that only differ in variable IDs must collapse to one
	// sample: signatures abstract variables to "?".
	rng := rand.New(rand.NewSource(2))
	in := testkit.RandomInstance(rng, 8, 3, 2)
	sigma := testkit.RandomFDs(rng, 3, 1, 1)
	reps, err := SampleDataRepairs(context.Background(), in, sigma, 50, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range reps {
		sig := repairSignature(r)
		if seen[sig] {
			t.Fatalf("duplicate after variable abstraction: %q", sig)
		}
		seen[sig] = true
	}
}

// TestRepairSignatureSeparatesDistinctRepairs builds repairs by hand whose
// raw "t:a=value;" renderings collide: a constant "?" against a variable,
// and one change whose value spells out a second cell against two
// changes. Each pair must sign differently, while repairs differing only
// in variable identities must sign the same.
func TestRepairSignatureSeparatesDistinctRepairs(t *testing.T) {
	schema := relation.MustSchema("A", "B")
	var vg relation.VarGen
	mk := func(cells map[relation.CellRef]relation.Value) *DataRepair {
		in := relation.NewInstance(schema)
		if err := in.AppendConsts("a", "b"); err != nil {
			t.Fatal(err)
		}
		rep := &DataRepair{out: &rows{in: in}}
		for _, c := range []relation.CellRef{{Tuple: 0, Attr: 0}, {Tuple: 0, Attr: 1}} {
			if v, ok := cells[c]; ok {
				in.Tuples[0][c.Attr] = v
				rep.Changed = append(rep.Changed, c)
			}
		}
		return rep
	}
	a0, b0 := relation.CellRef{Tuple: 0, Attr: 0}, relation.CellRef{Tuple: 0, Attr: 1}
	distinct := [][2]*DataRepair{
		{mk(map[relation.CellRef]relation.Value{a0: relation.Const("?")}),
			mk(map[relation.CellRef]relation.Value{a0: vg.Fresh()})},
		{mk(map[relation.CellRef]relation.Value{a0: relation.Const("x;0:1=y")}),
			mk(map[relation.CellRef]relation.Value{a0: relation.Const("x"), b0: relation.Const("y")})},
	}
	for i, p := range distinct {
		if s := repairSignature(p[0]); s == repairSignature(p[1]) {
			t.Errorf("pair %d: distinct repairs share signature %q", i, s)
		}
	}
	x, y := mk(map[relation.CellRef]relation.Value{a0: vg.Fresh()}), mk(map[relation.CellRef]relation.Value{a0: vg.Fresh()})
	if repairSignature(x) != repairSignature(y) {
		t.Errorf("variable identities leak into signatures: %q vs %q", repairSignature(x), repairSignature(y))
	}
}
