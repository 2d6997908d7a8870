package gen

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
)

// DataPerturbation is a perturbed instance Id together with the cells that
// were modified relative to the clean instance Ic (the ground truth the
// quality metrics score against).
type DataPerturbation struct {
	Instance *relation.Instance
	Cells    []relation.CellRef
}

// PerturbData implements the paper's two violation injectors. rate is the
// fraction of tuples that receive one injected cell error (the paper calls
// it the "Data Error Rate"; errors are necessarily sparse relative to the
// instance — Section 3.1 relies on that). Each injected change creates at
// least one new violation of sigma:
//
//   - Right-hand-side violation: find ti, tj agreeing on X∪{A} for some
//     X→A ∈ Σ and set ti[A] to a different domain value.
//   - Left-hand-side violation: find ti, tj with ti[X\{B}] = tj[X\{B}],
//     ti[B] ≠ tj[B], ti[A] ≠ tj[A], and set ti[B] = tj[B].
//
// Both kinds are attempted in equal proportion; if the data offers no site
// for one kind, the other fills in. The clean input is not modified.
func PerturbData(in *relation.Instance, sigma fd.Set, rate float64, seed int64) (*DataPerturbation, error) {
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
			cell = injectRHS(out, sigma, rng, touched)
			if cell == nil {
				cell = injectLHS(out, sigma, rng, touched)
			}
		} else {
			cell = injectLHS(out, sigma, rng, touched)
			if cell == nil {
				cell = injectRHS(out, sigma, rng, touched)
			}
		}
		if cell == nil {
			return nil, fmt.Errorf("gen: could not inject %d errors (placed %d); instance has no remaining violation sites", want, len(cells))
		}
		touched[*cell] = true
		cells = append(cells, *cell)
	}
	return &DataPerturbation{Instance: out, Cells: cells}, nil
}

// partitionBy groups every tuple by its projection on X using the shared
// columnar partitioner, returning the groups ordered by first tuple index.
// That order equals the first-seen order of the projected keys in a 0..N
// scan (each group's members stay in ascending tuple order because
// refinement is stable), which the injectors' rng draws depend on — the
// partitioner's own nested refinement order would differ and silently
// reshuffle every seeded perturbation. The groups alias the partitioner's
// scratch and are valid until its next use.
func partitionBy(p *relation.Partitioner, X relation.AttrSet) [][]int32 {
	p.BeginAll()
	p.RefineSet(X)
	pt := p.Partition()
	groups := make([][]int32, pt.NumGroups())
	for i := range groups {
		groups[i] = pt.Group(i)
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a][0] < groups[b][0] })
	return groups
}

// injectRHS finds a pair agreeing on X∪{A} and corrupts one side's A.
func injectRHS(in *relation.Instance, sigma fd.Set, rng *rand.Rand, touched map[relation.CellRef]bool) *relation.CellRef {
	fdOrder := rng.Perm(len(sigma))
	part := relation.NewPartitioner(in)
	for _, fi := range fdOrder {
		f := sigma[fi]
		var candidates []int
		for _, g := range partitionBy(part, f.LHS.Add(f.RHS)) {
			if len(g) >= 2 {
				for _, t := range g {
					if !touched[relation.CellRef{Tuple: int(t), Attr: f.RHS}] {
						candidates = append(candidates, int(t))
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

// injectLHS finds ti, tj differing on one LHS attribute B and on A, and
// copies tj[B] into ti[B], which makes the pair agree on X but not on A.
func injectLHS(in *relation.Instance, sigma fd.Set, rng *rand.Rand, touched map[relation.CellRef]bool) *relation.CellRef {
	fdOrder := rng.Perm(len(sigma))
	part := relation.NewPartitioner(in)
	for _, fi := range fdOrder {
		f := sigma[fi]
		if f.LHS.Len() == 0 {
			continue
		}
		colA, _ := in.Codes(f.RHS)
		attrs := f.LHS.Attrs()
		rng.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
		for _, b := range attrs {
			colB, _ := in.Codes(b)
			type site struct{ ti, tj int }
			var sites []site
			for _, g := range partitionBy(part, f.LHS.Remove(b)) {
				if len(g) < 2 {
					continue
				}
				// Any pair differing on both B and A works; scan a few.
				for x := 0; x < len(g) && len(sites) < 64; x++ {
					for y := x + 1; y < len(g) && len(sites) < 64; y++ {
						ti, tj := int(g[x]), int(g[y])
						if touched[relation.CellRef{Tuple: ti, Attr: b}] {
							continue
						}
						if colB[ti] != colB[tj] && colA[ti] != colA[tj] {
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

// FDPerturbation is a weakened FD set Σd with, per FD, the LHS attributes
// removed from the clean set Σc (the ground truth for FD quality metrics).
type FDPerturbation struct {
	Sigma   fd.Set
	Removed []relation.AttrSet
}

// TotalRemoved counts the removed attributes across all FDs.
func (p FDPerturbation) TotalRemoved() int {
	total := 0
	for _, r := range p.Removed {
		total += r.Len()
	}
	return total
}

// PerturbFDs removes a fraction rate of each FD's LHS attributes (rounded
// half away from zero), never dropping an FD's last LHS attribute. This is
// the paper's FD perturbation: Σd's FDs are too weak and over-fire on the
// clean data.
func PerturbFDs(sigma fd.Set, rate float64, seed int64) (FDPerturbation, error) {
	if rate < 0 || rate > 1 {
		return FDPerturbation{}, fmt.Errorf("gen: FD error rate %v outside [0,1]", rate)
	}
	rng := rand.New(rand.NewSource(seed))
	out := FDPerturbation{Sigma: make(fd.Set, len(sigma)), Removed: make([]relation.AttrSet, len(sigma))}
	for i, f := range sigma {
		k := int(rate*float64(f.LHS.Len()) + 0.5)
		if k >= f.LHS.Len() {
			k = f.LHS.Len() - 1 // keep at least one LHS attribute
		}
		attrs := f.LHS.Attrs()
		rng.Shuffle(len(attrs), func(x, y int) { attrs[x], attrs[y] = attrs[y], attrs[x] })
		var removed relation.AttrSet
		lhs := f.LHS
		for _, a := range attrs[:k] {
			removed = removed.Add(a)
			lhs = lhs.Remove(a)
		}
		out.Sigma[i] = fd.FD{LHS: lhs, RHS: f.RHS}
		out.Removed[i] = removed
	}
	return out, nil
}
