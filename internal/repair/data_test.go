package repair

import (
	"math/rand"
	"strings"
	"testing"

	"relatrust/internal/conflict"
	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/testkit"
)

func TestRepairDataPaperExample(t *testing.T) {
	// Figure 6: Σ' = {CA→B, C→D} on the 4×4 instance; C2opt = {t2};
	// the repair changes at most α·|C2opt| = 2 cells, all in t2.
	in, _ := testkit.Paper4x4()
	sigma := fd.MustParseSet(in.Schema, "C,A->B; C->D")
	rep, err := RepairDataPinned(in, sigma, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sigma.SatisfiedBy(rep.Instance()) {
		t.Fatal("repaired instance violates Σ'")
	}
	alpha := 2 // min{|R|-1, |Σ|} = min{3, 2}
	if rep.NumChanges() > alpha*len(rep.Cover) {
		t.Errorf("changes %d exceed α·|C2opt| = %d", rep.NumChanges(), alpha*len(rep.Cover))
	}
	for _, c := range rep.Changed {
		inCover := false
		for _, ti := range rep.Cover {
			if int(ti) == c.Tuple {
				inCover = true
			}
		}
		if !inCover {
			t.Errorf("cell %v changed outside the cover %v", c, rep.Cover)
		}
	}
}

func TestRepairDataProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 80; trial++ {
		width := 4 + rng.Intn(2)
		in := testkit.RandomInstance(rng, 8+rng.Intn(8), width, 2)
		sigma := testkit.RandomFDs(rng, width, 1+rng.Intn(2), 2)
		rep, err := RepairDataPinned(in, sigma, nil, int64(trial), nil)
		if err != nil {
			t.Fatalf("trial %d: %v\nΣ=%v\n%s", trial, err, sigma, in)
		}
		// (1) The output satisfies Σ'.
		if !sigma.SatisfiedBy(rep.Instance()) {
			t.Fatalf("trial %d: repaired instance violates Σ'\nΣ=%v\nin:\n%s\nout:\n%s",
				trial, sigma, in, rep.Instance())
		}
		// (2) Tuple count unchanged; untouched tuples identical.
		if rep.Instance().N() != in.N() {
			t.Fatalf("trial %d: tuple count changed", trial)
		}
		// (3) Change bound per Theorem 3.
		alpha := width - 1
		if len(sigma) < alpha {
			alpha = len(sigma)
		}
		if rep.NumChanges() > alpha*len(rep.Cover) {
			t.Fatalf("trial %d: %d changes > α·|C2opt| = %d·%d",
				trial, rep.NumChanges(), alpha, len(rep.Cover))
		}
		// (4) Changed cells agree with DiffCells.
		diff, err := in.DiffCells(rep.Instance())
		if err != nil {
			t.Fatal(err)
		}
		if len(diff) != rep.NumChanges() {
			t.Fatalf("trial %d: DiffCells reports %d, Changed reports %d",
				trial, len(diff), rep.NumChanges())
		}
		// (5) Grounding the V-instance preserves satisfaction.
		if !sigma.SatisfiedBy(rep.Instance().Ground("fresh_")) {
			t.Fatalf("trial %d: grounded repair violates Σ'", trial)
		}
	}
}

func TestRepairDataPerTupleChangeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 40; trial++ {
		width := 5
		in := testkit.RandomInstance(rng, 12, width, 2)
		sigma := testkit.RandomFDs(rng, width, 2, 2)
		rep, err := RepairDataPinned(in, sigma, nil, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		perTuple := map[int]int{}
		for _, c := range rep.Changed {
			perTuple[c.Tuple]++
		}
		bound := width - 1
		if len(sigma) < bound {
			bound = len(sigma)
		}
		for ti, n := range perTuple {
			if n > bound {
				t.Fatalf("trial %d: tuple %d changed %d cells > min{|R|-1,|Σ|} = %d",
					trial, ti, n, bound)
			}
		}
	}
}

func TestRepairDataWithSuppliedCover(t *testing.T) {
	in, _ := testkit.Paper4x4()
	sigma := fd.MustParseSet(in.Schema, "C,A->B; C->D")
	an := conflict.New(in, sigma)
	cover := an.Cover(nil)
	rep, err := RepairData(in, sigma, cover, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sigma.SatisfiedBy(rep.Instance()) {
		t.Fatal("repair with supplied cover violates Σ'")
	}
	if len(rep.Cover) != len(cover) {
		t.Error("supplied cover not used")
	}
}

func TestRepairDataRejectsNonCover(t *testing.T) {
	in := testkit.Build([]string{"A", "B"}, [][]string{
		{"1", "x"}, {"1", "y"},
	})
	sigma := fd.MustParseSet(in.Schema, "A->B")
	// An empty "cover" cannot license a repair of a violated instance, and
	// a nil cover is the empty one.
	for _, cover := range [][]int32{{}, nil} {
		if _, err := RepairData(in, sigma, cover, 0, nil); err == nil {
			t.Errorf("non-cover %#v must be rejected", cover)
		}
	}
}

// TestRepairDataRejectsPartialCover drops one violating pair from a real
// cover of a larger instance. Both tuples of the pair stay clean, so the
// loop never sees it: the clean index's fill must find it.
func TestRepairDataRejectsPartialCover(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := testkit.RandomInstance(rng, 200, 5, 3)
	sigma := fd.MustParseSet(in.Schema, "A0,A1->A2; A3->A4")
	v := sigma.FirstViolation(in)
	if v == nil {
		t.Fatal("test instance has no violation")
	}
	var partial []int32
	for _, c := range conflict.New(in, sigma).Cover(nil) {
		if int(c) != v.T1 && int(c) != v.T2 {
			partial = append(partial, c)
		}
	}
	_, err := RepairData(in, sigma, partial, 0, nil)
	if err == nil || !strings.Contains(err.Error(), "not a vertex cover") {
		t.Fatalf("partial cover: got %v, want the safety net's error", err)
	}
}

func TestRepairDataDeterministicPerSeed(t *testing.T) {
	in, _ := testkit.Paper4x4()
	sigma := fd.MustParseSet(in.Schema, "A->B; C->D")
	a, err := RepairDataPinned(in, sigma, nil, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RepairDataPinned(in, sigma, nil, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumChanges() != b.NumChanges() {
		t.Error("same seed must give the same repair size")
	}
	for i := range a.Changed {
		if a.Changed[i] != b.Changed[i] {
			t.Error("same seed must change the same cells")
		}
	}
}

func TestRepairDataSatisfiedInputUntouched(t *testing.T) {
	in := testkit.Build([]string{"A", "B"}, [][]string{
		{"1", "x"}, {"2", "y"},
	})
	sigma := fd.MustParseSet(in.Schema, "A->B")
	rep, err := RepairDataPinned(in, sigma, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumChanges() != 0 {
		t.Errorf("satisfied input was changed: %v", rep.Changed)
	}
}

func TestRepairDataUsesVariablesOnlyWhenFree(t *testing.T) {
	// Repairing A->B where the violating tuple's partner fixes the value:
	// the repaired cell should become either the partner's B or a fresh
	// variable; both satisfy Σ'. Just assert V-instance semantics hold.
	in := testkit.Build([]string{"A", "B", "C"}, [][]string{
		{"1", "x", "c1"}, {"1", "y", "c2"}, {"2", "z", "c3"},
	})
	sigma := fd.MustParseSet(in.Schema, "A->B")
	rep, err := RepairDataPinned(in, sigma, nil, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sigma.SatisfiedBy(rep.Instance()) {
		t.Fatal("violates after repair")
	}
	if rep.NumChanges() > 1 {
		t.Errorf("one violating pair needs at most 1 change, got %d", rep.NumChanges())
	}
}

// TestRepairDataStressLarger runs a bigger randomized round to shake out
// index-maintenance bugs (clean-set index updated as tuples are fixed).
func TestRepairDataStressLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	in := testkit.RandomInstance(rng, 400, 6, 3)
	sigma := testkit.RandomFDs(rng, 6, 3, 2)
	rep, err := RepairDataPinned(in, sigma, nil, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sigma.SatisfiedBy(rep.Instance()) {
		t.Fatal("large repair violates Σ'")
	}
	alpha := 3
	if rep.NumChanges() > alpha*len(rep.Cover) {
		t.Errorf("changes %d exceed bound %d", rep.NumChanges(), alpha*len(rep.Cover))
	}
}

// TestRepairDataFreshVariablesAvoidInputVariables re-repairs repaired
// random instances under new FD sets. The input is then a V-instance, and
// a "fresh" variable that reused one of its variable identities would be
// Equal to an existing cell: the chase would see a phantom agreement, and
// some tuple would find no valid assignment with one fixed attribute,
// which Theorem 3 rules out.
func TestRepairDataFreshVariablesAvoidInputVariables(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rerepairs := 0
	for trial := 0; trial < 600; trial++ {
		width := 3 + rng.Intn(3)
		in := testkit.RandomInstance(rng, 6+rng.Intn(12), width, 2+rng.Intn(2))
		first, err := RepairDataPinned(in, testkit.RandomFDs(rng, width, 1+rng.Intn(3), 2), nil, int64(trial), nil)
		if err != nil {
			t.Fatalf("trial %d: first repair: %v", trial, err)
		}
		vin := first.Instance()
		for round := 0; round < 3; round++ {
			sigma := testkit.RandomFDs(rng, width, 1+rng.Intn(3), 2)
			rep, err := RepairDataPinned(vin, sigma, nil, int64(round), nil)
			if err != nil {
				t.Fatalf("trial %d round %d: re-repair of a V-instance under %s: %v", trial, round, sigma.Format(vin.Schema), err)
			}
			rerepairs++
			// A changed cell holds a variable copied from its own column
			// or a fresh one numbered past every input variable.
			var maxID int64
			inColumn := map[[2]int64]bool{}
			for _, tp := range vin.Tuples {
				for a, v := range tp {
					if v.IsVar() {
						maxID = max(maxID, v.VarID())
						inColumn[[2]int64{int64(a), v.VarID()}] = true
					}
				}
			}
			for _, c := range rep.Changed {
				v := rep.Instance().Tuples[c.Tuple][c.Attr]
				if v.IsVar() && v.VarID() <= maxID && !inColumn[[2]int64{int64(c.Attr), v.VarID()}] {
					t.Fatalf("trial %d round %d: fresh variable %v at %v reuses an input variable identity", trial, round, v, c)
				}
			}
			vin = rep.Instance()
		}
	}
	if rerepairs == 0 {
		t.Fatal("no re-repairs ran")
	}
}

// TestValueMatchesInstance: every cell Value reads, changed or not, is the
// cell of the instance Instance builds, variable identity included, and
// Instance builds that instance once.
func TestValueMatchesInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		width := 3 + rng.Intn(3)
		in := testkit.RandomInstance(rng, 6+rng.Intn(20), width, 2+rng.Intn(2))
		rep, err := RepairDataPinned(in, testkit.RandomFDs(rng, width, 1+rng.Intn(3), 2), nil, int64(trial), nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		out := rep.Instance()
		if rep.Instance() != out {
			t.Fatalf("trial %d: Instance built twice", trial)
		}
		for tu, row := range out.Tuples {
			for a, v := range row {
				if got := rep.Value(relation.CellRef{Tuple: tu, Attr: a}); !got.Equal(v) {
					t.Fatalf("trial %d: Value(%d.%d) = %v, Instance holds %v", trial, tu, a, got, v)
				}
			}
		}
	}
}
