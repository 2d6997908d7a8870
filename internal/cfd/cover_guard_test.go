package cfd

import (
	"math/rand"
	"slices"
	"testing"

	"relatrust/internal/session"
)

// violationCover returns a cover of viols: every single violator, then
// both endpoints of each pair that no tuple taken so far covers.
func violationCover(viols []Violation) []int32 {
	var cover []int32
	for _, v := range viols {
		if v.T2 < 0 && !slices.Contains(cover, int32(v.T1)) {
			cover = append(cover, int32(v.T1))
		}
	}
	for _, v := range viols {
		if v.T2 >= 0 && !slices.Contains(cover, int32(v.T1)) && !slices.Contains(cover, int32(v.T2)) {
			cover = append(cover, int32(v.T1), int32(v.T2))
		}
	}
	return cover
}

// coversViolations reports whether set holds every single violator and an
// endpoint of every violating pair.
func coversViolations(viols []Violation, set []int32) bool {
	for _, v := range viols {
		if !slices.Contains(set, int32(v.T1)) && (v.T2 < 0 || !slices.Contains(set, int32(v.T2))) {
			return false
		}
	}
	return true
}

// hasConstantRHS reports whether some CFD of set has a constant RHS
// pattern.
func hasConstantRHS(set Set) bool {
	return slices.ContainsFunc(set, func(c CFD) bool { return c.RHSPattern != "" })
}

// TestMaterializeRejectsNonCovers draws small random V-instances, CFD
// sets and candidate tuple sets — a cover of the violations, that cover
// minus one tuple, and random subsets — and holds the CFD data repair to
// the violation list: materialize rejects a set that misses a single
// violator or leaves a violating pair uncovered, and every repair it
// returns satisfies the CFDs. Without constant RHS patterns it also accepts
// every cover. With them it may not: starting a tuple from one attribute
// whose value no clean row holds, the chase can reach a constant that
// contradicts the clean part, so Algorithm 4 finds no assignment.
func TestMaterializeRejectsNonCovers(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var accepts, rejects int
	for trial := range 400 {
		n := 2 + rng.Intn(29)
		dom := 2 + rng.Intn(2)
		in := randomVInstance(rng, n, 5, dom)
		set := randomCFDSet(rng, 5, 1+rng.Intn(3), dom)
		viols := set.Violations(in, 0)
		cover := violationCover(viols)
		cands := [][]int32{cover}
		if len(cover) > 0 {
			i := rng.Intn(len(cover))
			cands = append(cands, slices.Delete(slices.Clone(cover), i, i+1))
		}
		for range 3 {
			var sub []int32
			for u := range n {
				if rng.Intn(3) == 0 {
					sub = append(sub, int32(u))
				}
			}
			cands = append(cands, sub)
		}
		for _, cand := range cands {
			covers := coversViolations(viols, cand)
			out, _, err := materialize(set, slices.Clone(cand), nil, rng.Int63(), session.New(in))
			if err == nil && !covers {
				t.Fatalf("trial %d, %s, candidate %v: accepted a set that is no cover", trial, set.Format(in.Schema), cand)
			}
			if err != nil && covers && !hasConstantRHS(set) {
				t.Fatalf("trial %d, %s, candidate %v: cover rejected: %v", trial, set.Format(in.Schema), cand, err)
			}
			if err != nil {
				rejects++
				continue
			}
			accepts++
			if vs := set.Violations(out, 1); len(vs) != 0 {
				t.Fatalf("trial %d, %s, candidate %v: repair violates CFD %d at tuples %d, %d",
					trial, set.Format(in.Schema), cand, vs[0].CFD, vs[0].T1, vs[0].T2)
			}
		}
	}
	t.Logf("%d accepted, %d rejected", accepts, rejects)
	if accepts == 0 || rejects == 0 {
		t.Fatalf("one-sided draw: %d accepted, %d rejected", accepts, rejects)
	}
}
