package gen

// The seed implementation of the violation injectors grouped tuples by
// concatenated string projection keys. The port in perturb.go runs on the
// shared columnar partitioner instead; the oracles below reproduce the
// string-keyed versions verbatim, and the tests assert the port consumes
// the rng identically — same cells, same corrupted values, for every seed.

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
)

func oraclePerturbData(in *relation.Instance, sigma fd.Set, rate float64, seed int64) (*DataPerturbation, error) {
	if rate < 0 || rate > 1 {
		return nil, fmt.Errorf("gen: data error rate %v outside [0,1]", rate)
	}
	want := int(rate*float64(in.N()) + 0.5)
	out := in.Clone()
	rng := rand.New(rand.NewSource(seed))
	var cells []relation.CellRef
	touched := make(map[relation.CellRef]bool)

	for len(cells) < want {
		kind := rng.Intn(2)
		var cell *relation.CellRef
		if kind == 0 {
			cell = oracleInjectRHS(out, sigma, rng, touched)
			if cell == nil {
				cell = oracleInjectLHS(out, sigma, rng, touched)
			}
		} else {
			cell = oracleInjectLHS(out, sigma, rng, touched)
			if cell == nil {
				cell = oracleInjectRHS(out, sigma, rng, touched)
			}
		}
		if cell == nil {
			return nil, fmt.Errorf("gen: could not inject %d errors (placed %d)", want, len(cells))
		}
		touched[*cell] = true
		cells = append(cells, *cell)
	}
	return &DataPerturbation{Instance: out, Cells: cells}, nil
}

func oracleInjectRHS(in *relation.Instance, sigma fd.Set, rng *rand.Rand, touched map[relation.CellRef]bool) *relation.CellRef {
	fdOrder := rng.Perm(len(sigma))
	for _, fi := range fdOrder {
		f := sigma[fi]
		groups := make(map[string][]int, in.N())
		order := make([]string, 0, in.N())
		xa := f.LHS.Add(f.RHS)
		for t := 0; t < in.N(); t++ {
			key := in.Project(t, xa)
			if _, seen := groups[key]; !seen {
				order = append(order, key)
			}
			groups[key] = append(groups[key], t)
		}
		var candidates []int
		for _, key := range order { // deterministic: first-seen key order
			g := groups[key]
			if len(g) >= 2 {
				for _, t := range g {
					if !touched[relation.CellRef{Tuple: t, Attr: f.RHS}] {
						candidates = append(candidates, t)
					}
				}
			}
		}
		if len(candidates) == 0 {
			continue
		}
		t := candidates[rng.Intn(len(candidates))]
		old := in.Tuples[t][f.RHS].Str()
		in.Tuples[t][f.RHS] = relation.Const(old + "#err" + strconv.Itoa(rng.Intn(1<<30)))
		in.InvalidateCodes()
		return &relation.CellRef{Tuple: t, Attr: f.RHS}
	}
	return nil
}

func oracleInjectLHS(in *relation.Instance, sigma fd.Set, rng *rand.Rand, touched map[relation.CellRef]bool) *relation.CellRef {
	fdOrder := rng.Perm(len(sigma))
	for _, fi := range fdOrder {
		f := sigma[fi]
		if f.LHS.Len() == 0 {
			continue
		}
		attrs := f.LHS.Attrs()
		rng.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
		for _, b := range attrs {
			rest := f.LHS.Remove(b)
			groups := make(map[string][]int, in.N())
			order := make([]string, 0, in.N())
			for t := 0; t < in.N(); t++ {
				key := in.Project(t, rest)
				if _, seen := groups[key]; !seen {
					order = append(order, key)
				}
				groups[key] = append(groups[key], t)
			}
			type site struct{ ti, tj int }
			var sites []site
			for _, key := range order { // deterministic: first-seen key order
				g := groups[key]
				if len(g) < 2 {
					continue
				}
				for x := 0; x < len(g) && len(sites) < 64; x++ {
					for y := x + 1; y < len(g) && len(sites) < 64; y++ {
						ti, tj := g[x], g[y]
						if touched[relation.CellRef{Tuple: ti, Attr: b}] {
							continue
						}
						if !in.Tuples[ti][b].Equal(in.Tuples[tj][b]) &&
							!in.Tuples[ti][f.RHS].Equal(in.Tuples[tj][f.RHS]) {
							sites = append(sites, site{ti, tj})
						}
					}
				}
			}
			if len(sites) == 0 {
				continue
			}
			s := sites[rng.Intn(len(sites))]
			in.Tuples[s.ti][b] = in.Tuples[s.tj][b]
			in.InvalidateCodes()
			return &relation.CellRef{Tuple: s.ti, Attr: b}
		}
	}
	return nil
}

// TestPerturbDataMatchesStringKeyedOracle drives both implementations over
// single- and multi-FD workloads across a seed sweep and requires identical
// injected cells and identical resulting instances.
func TestPerturbDataMatchesStringKeyedOracle(t *testing.T) {
	spec := SubSpec(CensusSpec(), 10)
	single := fd.Set{fd.MustNew(relation.NewAttrSet(0, 1, 2), 6)}
	multi := fd.Set{
		fd.MustNew(relation.NewAttrSet(0, 1, 2), 6),
		fd.MustNew(relation.NewAttrSet(3, 4), 7),
		fd.MustNew(relation.NewAttrSet(5), 8),
	}
	for _, tc := range []struct {
		name  string
		sigma fd.Set
		n     int
		rate  float64
	}{
		{"single-fd", single, 800, 0.05},
		{"multi-fd", multi, 600, 0.08},
		{"dense", multi, 300, 0.2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in, err := Generate(spec, tc.sigma, tc.n, 11)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(0); seed < 8; seed++ {
				got, gotErr := PerturbData(in, tc.sigma, tc.rate, seed)
				want, wantErr := oraclePerturbData(in, tc.sigma, tc.rate, seed)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("seed %d: err = %v, oracle err = %v", seed, gotErr, wantErr)
				}
				if gotErr != nil {
					continue
				}
				if len(got.Cells) != len(want.Cells) {
					t.Fatalf("seed %d: %d cells, oracle %d", seed, len(got.Cells), len(want.Cells))
				}
				for i := range want.Cells {
					if got.Cells[i] != want.Cells[i] {
						t.Fatalf("seed %d: cell %d = %v, oracle %v", seed, i, got.Cells[i], want.Cells[i])
					}
				}
				diff, err := got.Instance.DiffCells(want.Instance)
				if err != nil {
					t.Fatal(err)
				}
				if len(diff) != 0 {
					t.Fatalf("seed %d: instances differ at %v", seed, diff[0])
				}
			}
		})
	}
}
