// Package gen synthesizes the experimental workloads of Section 8.1.
//
// The paper evaluates on the UCI Census-Income (KDD) data set (300k tuples,
// 34 attributes used) with FDs discovered from the clean data. That data
// set is not redistributable here and the build is offline, so this package
// generates a census-like relation instead: 34 attributes with realistic
// domain sizes, where the attributes on the right-hand side of a chosen FD
// set are *derived* deterministically from their LHS values — the planted
// FDs hold exactly, and removing any LHS attribute breaks the derivation
// generically, which is precisely the structure the paper's perturbation
// operators need. Both perturbation operators (right-hand-side violations
// and left-hand-side violations) and the FD perturbation (LHS-attribute
// removal) follow the paper's definitions.
package gen

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
)

// Spec describes a generatable relation: its schema and the domain size of
// each attribute.
type Spec struct {
	Schema  *relation.Schema
	Domains []int
}

// censusAttrs mirrors the 34 Census-Income attributes the paper uses, with
// domain sizes close to the real data set's distinct-value counts.
var censusAttrs = []struct {
	name string
	dom  int
}{
	{"age", 70}, {"class_of_worker", 9}, {"industry_code", 52},
	{"occupation_code", 47}, {"education", 17}, {"wage_per_hour", 200},
	{"enroll_in_edu", 3}, {"marital_stat", 7}, {"major_industry", 24},
	{"major_occupation", 15}, {"race", 5}, {"hispanic_origin", 10},
	{"sex", 2}, {"union_member", 3}, {"unemp_reason", 6},
	{"employment_stat", 8}, {"capital_gains", 132}, {"capital_losses", 113},
	{"dividends", 123}, {"tax_filer_stat", 6}, {"region_prev_res", 6},
	{"state_prev_res", 51}, {"household_family_stat", 38},
	{"household_summary", 8}, {"migration_msa", 10}, {"migration_reg", 9},
	{"migration_within_reg", 10}, {"live_here_1yr", 3},
	{"migration_sunbelt", 4}, {"num_persons_worked", 7},
	{"family_members_u18", 5}, {"country_father", 43},
	{"country_mother", 43}, {"country_self", 43},
}

// CensusSpec returns the 34-attribute census-like specification.
func CensusSpec() Spec {
	names := make([]string, len(censusAttrs))
	doms := make([]int, len(censusAttrs))
	for i, a := range censusAttrs {
		names[i] = a.name
		doms[i] = a.dom
	}
	return Spec{Schema: relation.MustSchema(names...), Domains: doms}
}

// SubSpec restricts a spec to its first width attributes (the paper's
// attribute-scalability experiment excludes attributes from the relation).
func SubSpec(s Spec, width int) Spec {
	if width <= 0 || width > s.Schema.Width() {
		width = s.Schema.Width()
	}
	return Spec{
		Schema:  relation.MustSchema(s.Schema.Names()[:width]...),
		Domains: append([]int(nil), s.Domains[:width]...),
	}
}

// PaperFD returns the FD shape used by the quality experiments: the first
// six attributes determine the seventh. The spec must have ≥7 attributes.
func PaperFD(s Spec) fd.FD {
	return fd.MustNew(relation.NewAttrSet(0, 1, 2, 3, 4, 5), 6)
}

// TwoFDs returns the two-FD workload of the scalability experiments, with
// disjoint RHS attributes. The spec must have ≥10 attributes.
func TwoFDs(s Spec) fd.Set {
	return fd.Set{
		fd.MustNew(relation.NewAttrSet(0, 1, 2), 6),
		fd.MustNew(relation.NewAttrSet(3, 4, 5), 7),
	}
}

// ReplicatedFDs replicates one FD k times, simulating larger Σ as the
// paper's FD-scalability experiment does.
func ReplicatedFDs(f fd.FD, k int) fd.Set {
	set := make(fd.Set, k)
	for i := range set {
		set[i] = f
	}
	return set
}

// Config tunes the generator's duplication model. Real census data is full
// of near-duplicate records (the paper's Example 1 blames inconsistencies
// on exactly that); without them no two tuples would ever agree on a wide
// LHS and the perturbation operators would find no violation sites.
type Config struct {
	N    int
	Seed int64
	// DupRate is the fraction of tuples generated as near-duplicates of
	// an earlier tuple. Default (zero value) 0.5.
	DupRate float64
	// ChurnAttrs is how many non-derived attributes of a duplicate are
	// re-drawn. Default 2.
	ChurnAttrs int
}

// Generate produces n tuples over the spec such that every FD in sigma
// holds exactly, with the default duplication model. See GenerateWith.
func Generate(s Spec, sigma fd.Set, n int, seed int64) (*relation.Instance, error) {
	return GenerateWith(s, sigma, Config{N: n, Seed: seed})
}

// GenerateWith produces tuples over the spec such that every FD in sigma
// holds exactly: RHS attributes are computed as a deterministic hash of
// their LHS values, so duplicates and churned duplicates stay consistent.
// FDs must have distinct RHS attributes and must not form derivation
// cycles.
func GenerateWith(s Spec, sigma fd.Set, cfg Config) (*relation.Instance, error) {
	width := s.Schema.Width()
	order, err := derivationOrder(sigma, width)
	if err != nil {
		return nil, err
	}
	if cfg.DupRate == 0 {
		cfg.DupRate = 0.5
	}
	if cfg.DupRate < 0 { // explicit "no duplicates"
		cfg.DupRate = 0
	}
	if cfg.ChurnAttrs <= 0 {
		cfg.ChurnAttrs = 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	in := relation.NewInstance(s.Schema)
	row := make([]string, width)
	derived := make(map[int]fd.FD, len(sigma))
	for _, f := range sigma {
		derived[f.RHS] = f
	}
	for t := 0; t < cfg.N; t++ {
		if t > 0 && rng.Float64() < cfg.DupRate {
			// Near-duplicate: copy an earlier tuple, re-draw a few
			// non-derived attributes, recompute the derived ones.
			src := in.Tuples[rng.Intn(t)]
			for a := 0; a < width; a++ {
				row[a] = src[a].Str()
			}
			for c := 0; c < cfg.ChurnAttrs; c++ {
				a := rng.Intn(width)
				if _, isDerived := derived[a]; isDerived {
					continue
				}
				row[a] = valueOf(s, a, rng.Intn(s.Domains[a]))
			}
		} else {
			for a := 0; a < width; a++ {
				if _, isDerived := derived[a]; !isDerived {
					row[a] = valueOf(s, a, rng.Intn(s.Domains[a]))
				}
			}
		}
		for _, a := range order {
			f := derived[a]
			row[a] = valueOf(s, a, deriveIndex(row, f.LHS, a, s.Domains[a]))
		}
		if err := in.AppendConsts(row...); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// valueOf renders the k-th domain value of attribute a.
func valueOf(s Spec, a, k int) string {
	return fmt.Sprintf("%s_%d", s.Schema.Name(a), k)
}

// deriveIndex maps LHS values to a stable domain index for the RHS.
func deriveIndex(row []string, lhs relation.AttrSet, rhs, dom int) int {
	h := fnv.New64a()
	lhs.ForEach(func(a int) bool {
		_, _ = h.Write([]byte(row[a]))
		_, _ = h.Write([]byte{0x1f})
		return true
	})
	_, _ = h.Write([]byte{byte(rhs)})
	return int(h.Sum64() % uint64(dom))
}

// derivationOrder topologically sorts the derived attributes so chained
// FDs (RHS feeding another FD's LHS) are computed after their inputs.
func derivationOrder(sigma fd.Set, width int) ([]int, error) {
	byRHS := make(map[int]fd.FD, len(sigma))
	for _, f := range sigma {
		if f.RHS >= width || f.LHS.Max() >= width {
			return nil, fmt.Errorf("gen: FD %s is outside the %d-attribute schema", f, width)
		}
		if prev, dup := byRHS[f.RHS]; dup && !prev.Equal(f) {
			return nil, fmt.Errorf("gen: two planted FDs share RHS attribute %d; the derivations would conflict", f.RHS)
		}
		byRHS[f.RHS] = f
	}
	var order []int
	state := make(map[int]int, len(byRHS)) // 0 unseen, 1 visiting, 2 done
	var visit func(a int) error
	visit = func(a int) error {
		switch state[a] {
		case 1:
			return fmt.Errorf("gen: planted FDs form a derivation cycle through attribute %d", a)
		case 2:
			return nil
		}
		state[a] = 1
		if f, ok := byRHS[a]; ok {
			var err error
			f.LHS.ForEach(func(b int) bool {
				if _, isDerived := byRHS[b]; isDerived {
					err = visit(b)
				}
				return err == nil
			})
			if err != nil {
				return err
			}
			order = append(order, a)
		}
		state[a] = 2
		return nil
	}
	for a := range byRHS {
		if err := visit(a); err != nil {
			return nil, err
		}
	}
	// Deterministic order among independent derivations.
	slices.Sort(order)
	return orderRespectingDeps(order, byRHS), nil
}

// orderRespectingDeps re-sorts the sorted attribute list so dependencies
// still precede dependents (stable Kahn pass over the sorted candidates).
func orderRespectingDeps(sorted []int, byRHS map[int]fd.FD) []int {
	done := make(map[int]bool, len(sorted))
	var out []int
	for len(out) < len(sorted) {
		progressed := false
		for _, a := range sorted {
			if done[a] {
				continue
			}
			ready := true
			byRHS[a].LHS.ForEach(func(b int) bool {
				if _, isDerived := byRHS[b]; isDerived && !done[b] {
					ready = false
				}
				return ready
			})
			if ready {
				done[a] = true
				out = append(out, a)
				progressed = true
			}
		}
		if !progressed { // unreachable: cycles were rejected above
			break
		}
	}
	return out
}
