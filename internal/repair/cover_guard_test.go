package repair

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"relatrust/internal/conflict"
	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/session"
	"relatrust/internal/testkit"
)

// coversPairs reports whether set holds an endpoint of every violating
// pair.
func coversPairs(viols []fd.Violation, set []int32) bool {
	for _, v := range viols {
		if !slices.Contains(set, int32(v.T1)) && !slices.Contains(set, int32(v.T2)) {
			return false
		}
	}
	return true
}

// TestRepairDataAcceptsExactlyVertexCovers draws small random instances
// and candidate tuple sets — the conflict cover, that cover minus one
// tuple, and random subsets — and holds Algorithm 4 to the violation list:
// RepairData succeeds iff the set covers every violating pair, and every
// repair it returns satisfies the FDs.
func TestRepairDataAcceptsExactlyVertexCovers(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var accepts, rejects int
	for trial := range 400 {
		n := 2 + rng.Intn(29)
		in := testkit.RandomInstance(rng, n, 5, 2+rng.Intn(2))
		sigma := testkit.RandomFDs(rng, 5, 1+rng.Intn(3), 2)
		viols := sigma.Violations(in, 0)
		// An empty cover is nil: RepairData takes nil as the empty cover.
		cover := conflict.New(in, sigma).Cover(nil)
		cands := [][]int32{cover}
		if len(cover) > 0 {
			i := rng.Intn(len(cover))
			cands = append(cands, slices.Delete(slices.Clone(cover), i, i+1))
		}
		for range 3 {
			sub := []int32{}
			for u := range n {
				if rng.Intn(3) == 0 {
					sub = append(sub, int32(u))
				}
			}
			cands = append(cands, sub)
		}
		for ci, cand := range cands {
			var eng *session.Engine
			if ci%2 == 1 {
				eng = session.New(in)
			}
			want := coversPairs(viols, cand)
			rep, err := RepairData(in, sigma, slices.Clone(cand), rng.Int63(), eng)
			if (err == nil) != want {
				t.Fatalf("trial %d, %s, candidate %v: err = %v, want success %v", trial, sigma.Format(in.Schema), cand, err, want)
			}
			if err != nil {
				rejects++
				continue
			}
			accepts++
			if v := sigma.FirstViolation(rep.Instance()); v != nil {
				t.Fatalf("trial %d, %s, candidate %v: repair violates %s between tuples %d and %d",
					trial, sigma.Format(in.Schema), cand, sigma[v.FD].Format(in.Schema), v.T1, v.T2)
			}
		}
	}
	t.Logf("%d accepted, %d rejected", accepts, rejects)
	if accepts == 0 || rejects == 0 {
		t.Fatalf("one-sided draw: %d accepted, %d rejected", accepts, rejects)
	}
}

// TestRepairDataNamesNonCovers: a set that misses a violating pair is
// always reported as no vertex cover, found while the clean index fills,
// before the loop could fail on it for another reason.
func TestRepairDataNamesNonCovers(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var rejects int
	for trial := range 200 {
		n := 2 + rng.Intn(29)
		in := testkit.RandomInstance(rng, n, 5, 2+rng.Intn(2))
		sigma := testkit.RandomFDs(rng, 5, 1+rng.Intn(3), 2)
		cand := []int32{}
		for u := range n {
			if rng.Intn(2) == 0 {
				cand = append(cand, int32(u))
			}
		}
		if coversPairs(sigma.Violations(in, 0), cand) {
			continue
		}
		rejects++
		_, err := RepairData(in, sigma, cand, rng.Int63(), nil)
		if err == nil || !strings.Contains(err.Error(), "not a vertex cover") {
			t.Fatalf("trial %d, %s, candidate %v: got %v, want a no-vertex-cover error", trial, sigma.Format(in.Schema), cand, err)
		}
	}
	if rejects == 0 {
		t.Fatal("no trial drew a non-cover")
	}
}

// TestCleanIndexCheck drives the check each rewritten tuple passes before
// it joins the index, a violation query on its final cells: A->B over
// three rows, where row 0 is clean and rows 1 and 2 are rewritten.
func TestCleanIndexCheck(t *testing.T) {
	in := testkit.Build([]string{"A", "B"}, [][]string{{"a", "x"}, {"a", "x"}, {"b", "y"}})
	cons := []Constraint{{FD: fd.MustParseSet(in.Schema, "A->B")[0]}}
	out, _ := newRows(in, []int32{1, 2})
	ci, err := newCleanIndex(in, relation.NewKeyTables(in), out, cons, 2)
	if err != nil {
		t.Fatal(err)
	}
	colA, _ := in.Codes(0)
	colB, _ := in.Codes(1)
	a, b := colA[0], colA[2]
	x, y := colB[0], colB[2]
	check := func(tup relation.Tuple, codes ...int32) error {
		if i, _, _, bad := ci.violation(&assignment{vals: tup, codes: codes}); bad {
			return fmt.Errorf("violates %s", cons[i].Format(in.Schema))
		}
		return nil
	}

	// Disagrees with the clean row 0 on B.
	if err := check(relation.Tuple{in.Tuples[0][0], in.Tuples[2][1]}, a, y); err == nil {
		t.Error("a tuple disagreeing with a clean row passed the check")
	}
	// Row 2 as it stands agrees with everything indexed; it joins the index.
	if err := check(in.Tuples[2], b, y); err != nil {
		t.Fatalf("a consistent tuple failed the check: %v", err)
	}
	ci.add(in.Tuples[2], []int32{b, y}, 2)
	// Row 1 rewritten to A=b disagrees with the rewritten row 2 on B.
	if err := check(relation.Tuple{in.Tuples[2][0], in.Tuples[0][1]}, b, x); err == nil {
		t.Error("a tuple disagreeing with an earlier rewritten tuple passed the check")
	}
	if err := check(relation.Tuple{in.Tuples[2][0], in.Tuples[2][1]}, b, y); err != nil {
		t.Errorf("a tuple agreeing with the rewritten row failed the check: %v", err)
	}
}

// TestRewriteRejectsUncoveredConstant: a clean row that misses its
// constraint's constant RHS means the dirty rows are no vertex cover.
func TestRewriteRejectsUncoveredConstant(t *testing.T) {
	in := testkit.Build([]string{"A", "B"}, [][]string{{"a", "x"}, {"a", "y"}, {"b", "x"}})
	cons := []Constraint{{FD: fd.MustParseSet(in.Schema, "A->B")[0], Const: "x"}}
	if _, err := Rewrite(session.New(in), cons, []int32{1}, nil, 1); err != nil {
		t.Fatalf("covered: %v", err)
	}
	_, err := Rewrite(session.New(in), cons, []int32{0}, nil, 1)
	if err == nil || !strings.Contains(err.Error(), "tuple 1 violates the constant") || !strings.Contains(err.Error(), "not a vertex cover") {
		t.Fatalf("uncovered: got %v, want tuple 1's constant named", err)
	}
}
