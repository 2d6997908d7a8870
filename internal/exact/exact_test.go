// Package exact checks the paper's approximation guarantee end to end
// against δopt(Σ, I) — the true minimum number of cell changes that make I
// satisfy Σ — computed by exhaustive search. The problem is NP-hard
// (Kolahi & Lakshmanan, the paper's [10]), so the search accepts tiny
// instances only; TestTheorem3EndToEnd uses it to verify Theorem 3:
// Repair_Data changes at most 2·min{|R|−1,|Σ|}·δopt cells.
//
// The search relies on the standard active-domain argument: if a k-change
// repair exists, one exists in which every changed cell takes either a
// fresh variable (distinct from everything) or a value already present in
// its attribute's column. Candidate assignments are therefore finite.
package exact

import (
	"fmt"
	"math/rand"
	"testing"

	"relatrust/internal/conflict"
	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/repair"
	"relatrust/internal/testkit"
)

// MaxCells bounds the number of cells the exhaustive search will consider
// changing; calls needing more return an error rather than running for
// hours.
const MaxCells = 24

// DeltaOpt returns δopt(Σ, I) and one witnessing repaired instance. The
// search enumerates change budgets k = 0, 1, … and, per budget, every
// k-subset of cells and every active-domain-or-variable assignment to it.
func DeltaOpt(in *relation.Instance, sigma fd.Set) (int, *relation.Instance, error) {
	totalCells := in.N() * in.Schema.Width()
	if totalCells > MaxCells {
		return 0, nil, fmt.Errorf("exact: instance has %d cells, limit is %d", totalCells, MaxCells)
	}
	if satisfied(in, sigma) {
		return 0, in.Clone(), nil
	}
	// Candidate values per attribute: the active domain plus one fresh
	// variable (fresh variables never equal anything, so one generator
	// value per changed cell suffices).
	candidates := make([][]relation.Value, in.Schema.Width())
	for a := 0; a < in.Schema.Width(); a++ {
		seen := map[string]bool{}
		for t := 0; t < in.N(); t++ {
			v := in.Tuples[t][a]
			if !v.IsVar() && !seen[v.Str()] {
				seen[v.Str()] = true
				candidates[a] = append(candidates[a], v)
			}
		}
	}

	cells := make([]relation.CellRef, 0, totalCells)
	for t := 0; t < in.N(); t++ {
		for a := 0; a < in.Schema.Width(); a++ {
			cells = append(cells, relation.CellRef{Tuple: t, Attr: a})
		}
	}

	for k := 1; k <= totalCells; k++ {
		if witness := trySubsets(in, sigma, cells, candidates, k); witness != nil {
			return k, witness, nil
		}
	}
	return 0, nil, fmt.Errorf("exact: no repair found changing every cell — unreachable")
}

// trySubsets enumerates k-subsets of cells and assignments.
func trySubsets(in *relation.Instance, sigma fd.Set, cells []relation.CellRef, candidates [][]relation.Value, k int) *relation.Instance {
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	work := in.Clone()
	var vg relation.VarGen
	for {
		if w := tryAssignments(work, in, sigma, cells, candidates, idx, 0, &vg); w != nil {
			return w
		}
		// Next k-combination.
		i := k - 1
		for i >= 0 && idx[i] == len(cells)-k+i {
			i--
		}
		if i < 0 {
			return nil
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// tryAssignments fills the chosen cells recursively with candidate values
// (or a fresh variable), requiring each changed cell to actually differ
// from its original value.
func tryAssignments(work, orig *relation.Instance, sigma fd.Set, cells []relation.CellRef, candidates [][]relation.Value, idx []int, pos int, vg *relation.VarGen) *relation.Instance {
	if pos == len(idx) {
		if satisfied(work, sigma) {
			return work.Clone()
		}
		return nil
	}
	c := cells[idx[pos]]
	origVal := orig.Tuples[c.Tuple][c.Attr]
	options := append([]relation.Value(nil), candidates[c.Attr]...)
	options = append(options, vg.Fresh())
	for _, v := range options {
		if v.Equal(origVal) {
			continue // not a change
		}
		work.Tuples[c.Tuple][c.Attr] = v
		if w := tryAssignments(work, orig, sigma, cells, candidates, idx, pos+1, vg); w != nil {
			work.Tuples[c.Tuple][c.Attr] = origVal
			return w
		}
	}
	work.Tuples[c.Tuple][c.Attr] = origVal
	return nil
}

// satisfied checks Σ by direct pairwise comparison. The exhaustive search
// mutates its working instance in place between checks, so it must not use
// fd.Set.SatisfiedBy — that goes through the instance's cached dictionary
// code columns, which in-place mutation leaves stale (see
// relation.Instance.Codes). On the ≤ MaxCells instances this package
// accepts, O(n²) per check is both faster than any keyed scan and
// allocation-free in the innermost loop of the search.
func satisfied(in *relation.Instance, sigma fd.Set) bool {
	for _, f := range sigma {
		for i := 0; i < in.N(); i++ {
			for j := i + 1; j < in.N(); j++ {
				ti, tj := in.Tuples[i], in.Tuples[j]
				if ti.AgreeOn(tj, f.LHS) && !ti[f.RHS].Equal(tj[f.RHS]) {
					return false
				}
			}
		}
	}
	return true
}

func TestDeltaOptSatisfiedInstance(t *testing.T) {
	in := testkit.Build([]string{"A", "B"}, [][]string{{"1", "x"}, {"2", "y"}})
	sigma := fd.MustParseSet(in.Schema, "A->B")
	d, witness, err := DeltaOpt(in, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 || !sigma.SatisfiedBy(witness) {
		t.Fatalf("δopt = %d, want 0", d)
	}
}

func TestDeltaOptSingleViolation(t *testing.T) {
	in := testkit.Build([]string{"A", "B"}, [][]string{{"1", "x"}, {"1", "y"}})
	sigma := fd.MustParseSet(in.Schema, "A->B")
	d, witness, err := DeltaOpt(in, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Fatalf("δopt = %d, want 1", d)
	}
	if !sigma.SatisfiedBy(witness) {
		t.Fatal("witness invalid")
	}
}

func TestDeltaOptNeedsEqualizing(t *testing.T) {
	// Two pairs sharing a middle tuple: A->B with groups (1,1,1): values
	// x,y,z — two changes needed (make two of them equal the third), and
	// fresh variables alone cannot help.
	in := testkit.Build([]string{"A", "B"}, [][]string{
		{"1", "x"}, {"1", "y"}, {"1", "z"},
	})
	sigma := fd.MustParseSet(in.Schema, "A->B")
	d, _, err := DeltaOpt(in, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 {
		t.Fatalf("δopt = %d, want 2", d)
	}
}

func TestDeltaOptRefusesLargeInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := testkit.RandomInstance(rng, 10, 5, 2)
	if _, _, err := DeltaOpt(in, testkit.RandomFDs(rng, 5, 1, 2)); err == nil {
		t.Fatal("oversized instance must be rejected")
	}
}

// TestTheorem3EndToEnd verifies the paper's headline approximation bound
// on exhaustively-checkable instances: Repair_Data changes at most
// 2·min{|R|−1,|Σ|}·δopt cells, and the vertex-cover-based δP bound indeed
// sandwiches δopt ≤ δP ≤ 2α·δopt... the left inequality (δopt ≤ α·|C2opt|
// as an upper bound on the performed changes) and the global factor are
// what Theorem 3 promises.
func TestTheorem3EndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	checked := 0
	for trial := 0; trial < 200 && checked < 60; trial++ {
		width := 2 + rng.Intn(2) // ≤ 3 attrs × ≤ 8 tuples = ≤ 24 cells
		n := 4 + rng.Intn(5)
		if n*width > MaxCells {
			continue
		}
		in := testkit.RandomInstance(rng, n, width, 2)
		sigma := testkit.RandomFDs(rng, width, 1+rng.Intn(2), 1)
		dopt, _, err := DeltaOpt(in, sigma)
		if err != nil {
			t.Fatal(err)
		}
		if dopt == 0 {
			continue
		}
		checked++
		alpha := width - 1
		if len(sigma) < alpha {
			alpha = len(sigma)
		}
		rep, err := repair.RepairDataPinned(in, sigma, nil, int64(trial), nil)
		if err != nil {
			t.Fatal(err)
		}
		bound := 2 * alpha * dopt
		if rep.NumChanges() > bound {
			t.Fatalf("trial %d: repair changed %d cells > 2α·δopt = %d (δopt=%d, α=%d)\nΣ=%v\n%s",
				trial, rep.NumChanges(), bound, dopt, alpha, sigma, in)
		}
		// And the certified budget itself respects the factor.
		an := conflict.New(in, sigma)
		if deltaP := alpha * an.CoverSize(nil); deltaP > bound {
			t.Fatalf("trial %d: δP=%d exceeds 2α·δopt=%d", trial, deltaP, bound)
		}
		// Sanity: a minimum vertex cover never exceeds δopt.
		edges := testkit.Edges(in, sigma)
		if opt := testkit.MinVertexCover(edges); opt > dopt {
			t.Fatalf("trial %d: min vertex cover %d exceeds δopt %d", trial, opt, dopt)
		}
	}
	if checked < 20 {
		t.Fatalf("only %d violating instances checked; generator too clean", checked)
	}
}
