package repair

import (
	"context"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/search"
	"relatrust/internal/session"
	"relatrust/internal/testkit"
)

// TestSweepsOverOneEngineBuildOneRoot: a full sweep ends at a goal whose
// Σ′ the data satisfies (δP = 0), so that goal's cover is empty. Its data
// repair takes the empty cover as given, so repeated sweeps over one
// engine build the root once and acquire it once per sweep.
func TestSweepsOverOneEngineBuildOneRoot(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	eng := session.New(in)
	for sweep := int64(1); sweep <= 2; sweep++ {
		s, err := NewSession(in, sigma, Config{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		var last *Repair
		err = s.StreamRange(context.Background(), 0, s.DeltaPOriginal(), func(r *Repair) error {
			last = r
			return nil
		})
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if last == nil || last.DeltaP != 0 || len(last.Data.Cover) != 0 {
			t.Fatalf("sweep %d does not end at a conflict-free goal: %v", sweep, last)
		}
		if st := eng.Stats(); st.Builds != 1 || st.Acquires != sweep {
			t.Errorf("after sweep %d: %+v, want 1 build and %d acquires", sweep, st, sweep)
		}
	}
}

// TestRepairDataNilCoverIsEmpty: a nil cover is the empty one. On a Σ′ the
// data satisfies it changes no cell and builds no analysis.
func TestRepairDataNilCoverIsEmpty(t *testing.T) {
	in, _ := testkit.Paper4x4()
	sigma := fd.MustParseSet(in.Schema, "A,C,D->B; A,B,C->D")
	eng := session.New(in)
	rep, err := RepairData(in, sigma, nil, 0, eng)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumChanges() != 0 || len(rep.Cover) != 0 {
		t.Errorf("repair of a satisfied Σ′: %d changes, cover %v", rep.NumChanges(), rep.Cover)
	}
	if st := eng.Stats(); st != (session.Stats{}) {
		t.Errorf("engine stats %+v, want no acquire and no build", st)
	}
}

func TestRunPaperExample(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	s, err := NewSession(in, sigma, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("no repair at τ=2")
	}
	if rep.FDCost != 1 {
		t.Errorf("dist_c = %v, want 1", rep.FDCost)
	}
	if rep.Data.NumChanges() > 2 {
		t.Errorf("cell changes %d exceed τ=2", rep.Data.NumChanges())
	}
	if !rep.Sigma.SatisfiedBy(rep.Data.Instance()) {
		t.Error("I' must satisfy Σ'")
	}
	if len(rep.String()) == 0 {
		t.Error("empty String")
	}
}

// TestRunRespectsTau: for every τ, the materialized repair never changes
// more than τ cells — Theorem 2's guarantee carried through δP.
func TestRunRespectsTau(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		width := 4 + rng.Intn(2)
		in := testkit.RandomInstance(rng, 10+rng.Intn(8), width, 2)
		sigma := testkit.RandomFDs(rng, width, 1+rng.Intn(2), 2)
		s, err := NewSession(in, sigma, Config{Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		dp := s.DeltaPOriginal()
		for _, tau := range []int{0, dp / 3, dp} {
			rep, err := s.Run(context.Background(), tau)
			if err != nil {
				t.Fatal(err)
			}
			if rep == nil {
				continue
			}
			if rep.Data.NumChanges() > tau {
				t.Fatalf("trial %d: %d cell changes > τ=%d (δP=%d)\nΣ=%v",
					trial, rep.Data.NumChanges(), tau, rep.DeltaP, sigma)
			}
			if !rep.Sigma.SatisfiedBy(rep.Data.Instance()) {
				t.Fatalf("trial %d: I' violates Σ'", trial)
			}
			if !rep.Sigma.IsRelaxationOf(sigma) {
				t.Fatalf("trial %d: Σ' = %v is not a relaxation of Σ = %v", trial, rep.Sigma, sigma)
			}
		}
	}
}

// TestRunRangeParetoFrontier: the repairs StreamRange yields across the
// trust range must be mutually non-dominated in (dist_c, cell changes).
func TestRunRangeParetoFrontier(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	s, err := NewSession(in, sigma, Config{})
	if err != nil {
		t.Fatal(err)
	}
	reps, err := streamAll(s, 0, s.DeltaPOriginal())
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) < 2 {
		t.Fatalf("spectrum too small: %d", len(reps))
	}
	for i := range reps {
		for j := range reps {
			if i == j {
				continue
			}
			a, b := reps[i], reps[j]
			if a.FDCost <= b.FDCost && a.DeltaP <= b.DeltaP &&
				(a.FDCost < b.FDCost || a.DeltaP < b.DeltaP) {
				t.Errorf("repair %d (cost %v, δP %d) dominates repair %d (cost %v, δP %d)",
					i, a.FDCost, a.DeltaP, j, b.FDCost, b.DeltaP)
			}
		}
	}
}

// TestRangeAndSamplingAgree: Range-Repair and Sampling-Repair must produce
// the same set of FD repairs when sampling covers every τ.
func TestRangeAndSamplingAgree(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	s, err := NewSession(in, sigma, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dp := s.DeltaPOriginal()
	ranged, err := streamAll(s, 0, dp)
	if err != nil {
		t.Fatal(err)
	}
	taus := make([]int, 0, dp+1)
	for tau := dp; tau >= 0; tau-- {
		taus = append(taus, tau)
	}
	sampled, err := RunSampling(context.Background(), in, sigma, taus, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranged) != len(sampled) {
		t.Fatalf("range found %d repairs, sampling found %d", len(ranged), len(sampled))
	}
	for i := range ranged {
		if ranged[i].Ext.Key() != sampled[i].Ext.Key() {
			t.Errorf("repair %d differs: range %s vs sampling %s",
				i, ranged[i].Ext, sampled[i].Ext)
		}
	}
}

func TestSessionValidation(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	if _, err := NewSession(in, fd.Set{}, Config{}); err == nil {
		t.Error("empty Σ must be rejected")
	}
	if _, err := NewSession(relation.NewInstance(in.Schema), sigma, Config{}); err == nil {
		t.Error("empty instance must be rejected")
	}
	bad := fd.Set{fd.MustNew(relation.NewAttrSet(10), 11)}
	if _, err := NewSession(in, bad, Config{}); err == nil {
		t.Error("out-of-schema FD must be rejected")
	}
}

func TestTauFromRelative(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	s, err := NewSession(in, sigma, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.TauFromRelative(1.0); got != s.DeltaPOriginal() {
		t.Errorf("τr=100%% → %d, want δP=%d", got, s.DeltaPOriginal())
	}
	if got := s.TauFromRelative(0); got != 0 {
		t.Errorf("τr=0 → %d, want 0", got)
	}
	if got := s.TauFromRelative(-0.5); got != 0 {
		t.Errorf("negative τr → %d, want 0", got)
	}
}

func TestBestFirstConfig(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	s, err := NewSession(in, sigma, Config{Search: search.Options{BestFirst: true}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.FDCost != 1 {
		t.Fatalf("best-first config broken: %+v", rep)
	}
}

// TestMinimalityAgainstBruteForce verifies the τ-constrained-repair
// property on random instances: no FD relaxation with δP ≤ τ is cheaper
// than the one returned (brute force over the whole extension lattice).
func TestMinimalityAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		width := 4
		in := testkit.RandomInstance(rng, 8, width, 2)
		sigma := testkit.RandomFDs(rng, width, 1, 2)
		s, err := NewSession(in, sigma, Config{})
		if err != nil {
			t.Fatal(err)
		}
		dp := s.DeltaPOriginal()
		for _, tau := range []int{0, dp / 2} {
			rep, err := s.Run(context.Background(), tau)
			if err != nil {
				t.Fatal(err)
			}
			best := bruteForceBestCost(s, sigma, width, tau)
			if rep == nil {
				if best >= 0 {
					t.Fatalf("trial %d τ=%d: search says infeasible, brute force found cost %d", trial, tau, best)
				}
				continue
			}
			if int(rep.FDCost) != best {
				t.Fatalf("trial %d τ=%d: search cost %v, brute force %d\nΣ=%v\n%s",
					trial, tau, rep.FDCost, best, sigma, in)
			}
		}
	}
}

// TestFrontierAgainstBruteForce checks the streamed Range-Repair frontier
// against the exhaustive Pareto set on random instances: over every
// extension vector of the lattice, the non-dominated (Σ|y|, α·|cover|)
// pairs — on equal cost only the smaller δP survives — must be exactly the
// (FDCost, DeltaP) pairs the stream yields over [0, δP(Σ, I)].
func TestFrontierAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 30; trial++ {
		width := 4
		in := testkit.RandomInstance(rng, 8, width, 2)
		sigma := testkit.RandomFDs(rng, width, 1+rng.Intn(2), 2)
		s, err := NewSession(in, sigma, Config{})
		if err != nil {
			t.Fatal(err)
		}
		reps, err := streamAll(s, 0, s.DeltaPOriginal())
		if err != nil {
			t.Fatal(err)
		}
		got := map[[2]int]bool{}
		for _, r := range reps {
			got[[2]int{int(r.FDCost), r.DeltaP}] = true
		}
		if len(got) != len(reps) {
			t.Fatalf("trial %d: frontier repeats a (cost, δP) point: %d points, %d distinct", trial, len(reps), len(got))
		}

		var points [][2]int
		walkLattice(s, sigma, width, func(cost, deltaP int) { points = append(points, [2]int{cost, deltaP}) })
		want := map[[2]int]bool{}
		for _, p := range points {
			dominated := false
			for _, q := range points {
				if q[0] <= p[0] && q[1] <= p[1] && q != p {
					dominated = true
					break
				}
			}
			if !dominated {
				want[p] = true
			}
		}
		if !maps.Equal(got, want) {
			t.Fatalf("trial %d: frontier %v, brute-force Pareto set %v\nΣ=%v\n%s", trial, got, want, sigma, in)
		}
	}
}

// bruteForceBestCost enumerates every extension vector and returns the
// minimum |ext| whose δP fits τ, or -1 if none.
func bruteForceBestCost(s *Session, sigma fd.Set, width, tau int) int {
	best := -1
	walkLattice(s, sigma, width, func(cost, deltaP int) {
		if deltaP <= tau && (best < 0 || cost < best) {
			best = cost
		}
	})
	return best
}

// walkLattice visits every extension vector of sigma over width
// attributes with its cost Σ|y| and its δP = α·|cover|.
func walkLattice(s *Session, sigma fd.Set, width int, visit func(cost, deltaP int)) {
	alpha := s.Searcher.Alpha()
	var walk func(st search.State, fi int)
	walk = func(st search.State, fi int) {
		if fi == len(sigma) {
			cost := 0
			for _, y := range st {
				cost += y.Len()
			}
			visit(cost, s.Analysis.CoverSize(st)*alpha)
			return
		}
		free := relation.FullSet(width).Diff(sigma[fi].LHS).Remove(sigma[fi].RHS)
		attrs := free.Attrs()
		for mask := 0; mask < 1<<len(attrs); mask++ {
			var y relation.AttrSet
			for b, a := range attrs {
				if mask&(1<<b) != 0 {
					y = y.Add(a)
				}
			}
			st[fi] = y
			walk(st, fi+1)
		}
		st[fi] = 0
	}
	walk(search.Root(len(sigma)), 0)
}

// TestMaterializeChecksCoverSize: a goal whose cover does not have the
// size the search reported is an internal error, never a repair that
// breaks δP ≤ τ silently.
func TestMaterializeChecksCoverSize(t *testing.T) {
	in, sigma := testkit.Paper4x4()
	s, err := NewSession(in, sigma, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Searcher.Find(context.Background(), 2)
	if err != nil || res == nil {
		t.Fatalf("Find: %v, %v", res, err)
	}
	if _, err := s.materialize(res, 2); err != nil {
		t.Fatalf("the search's own goal: %v", err)
	}
	bad := *res
	bad.CoverSize++
	if _, err := s.materialize(&bad, 2); err == nil || !strings.Contains(err.Error(), "internal error") {
		t.Fatalf("a goal sized wrong: got %v, want an internal error", err)
	}
}
