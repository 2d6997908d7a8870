// Package weights implements the weighting functions w(Y) that price an
// LHS extension Y of an FD (Section 3.1 of the paper). All implementations
// are non-negative and monotone (X ⊆ Y ⟹ w(X) ≤ w(Y)), which the search
// relies on for pruning, and they evaluate against the *initial* instance
// only — the paper's simplifying assumption that repairing a small number
// of cells does not materially change attribute statistics.
//
// So w(Y) is a function of one dataset snapshot, and the instance-backed
// weightings (distinct-count, entropy, MDL) are views over one Source per
// snapshot: a memo keyed by AttrSet. A session engine owns one Source,
// which lives as long as the engine; a live-dataset mutation builds a new
// engine, so the memo never answers for another generation's rows.
package weights

import (
	"fmt"
	"math"
	"sync"

	"relatrust/internal/relation"
)

// Func prices an attribute-set extension. Implementations must be
// non-negative, monotone, and return 0 for the empty set.
type Func interface {
	// Weight returns w(Y).
	Weight(y relation.AttrSet) float64
	// Name identifies the function in reports.
	Name() string
}

// AttrCount is the simplest weighting: w(Y) = |Y|.
type AttrCount struct{}

// Weight returns the number of attributes in y.
func (AttrCount) Weight(y relation.AttrSet) float64 { return float64(y.Len()) }

// Name implements Func.
func (AttrCount) Name() string { return "attr-count" }

// Source memoizes the profile of π(Y) — the partition of an instance's
// tuples by their Y-projection — per attribute set. It is safe for
// concurrent use: one mutex guards the partitioner and the memo, so the
// sweeps and search workers of one snapshot share every computed profile.
type Source struct {
	in *relation.Instance

	mu   sync.Mutex
	part *relation.Partitioner
	memo map[relation.AttrSet]profile

	bitsOnce sync.Once
	valBits  float64 // MDL's per-table-row cost; see valueBits
}

// profile is what the weightings read of π(Y): |Π_Y(I)| and H(Π_Y(I)) in bits.
type profile struct{ groups, entropy float64 }

// NewSource returns an empty source over the instance, which must not be
// mutated while the source is in use.
func NewSource(in *relation.Instance) *Source {
	return &Source{
		in:   in,
		part: relation.NewPartitioner(in),
		memo: make(map[relation.AttrSet]profile),
	}
}

// Len returns the number of memoized attribute sets.
func (s *Source) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.memo)
}

// profile returns the memoized profile of π(y), computing both numbers in
// one code-based refinement pass on a miss. y must be non-empty.
func (s *Source) profile(y relation.AttrSet) profile {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.memo[y]; ok {
		return p
	}
	s.part.BeginAll()
	s.part.RefineSet(y)
	pt := s.part.Partition()
	// Every term −q·log₂q is ≥ 0 for q ∈ (0, 1], so the sum starts and
	// stays at +0 or above; an empty instance has no groups and sums to 0.
	p := profile{groups: float64(pt.NumGroups())}
	n := float64(s.in.N())
	for gi := 0; gi < pt.NumGroups(); gi++ {
		q := float64(len(pt.Group(gi))) / n
		p.entropy -= q * math.Log2(q)
	}
	s.memo[y] = p
	return p
}

// valueBits returns log₂ of the average per-column cardinality (at least
// 1 bit), computed once. The distinct count per column is the number of
// codes its column holds: an installed column's code space may be larger
// (the live tier's grow-only dictionaries), so the count reads the
// column, not its code space.
func (s *Source) valueBits() float64 {
	s.bitsOnce.Do(func() {
		total := 0.0
		width := s.in.Schema.Width()
		for a := 0; a < width; a++ {
			codes, n := s.in.Codes(a)
			seen := make([]bool, n)
			for _, c := range codes {
				if !seen[c] {
					seen[c] = true
					total++
				}
			}
		}
		avg := total / math.Max(float64(width), 1)
		s.valBits = math.Log2(math.Max(avg, 2))
	})
	return s.valBits
}

// DistinctCount prices Y by the number of distinct values of the projection
// Π_Y(I) — the paper's experimental choice: the more informative an
// attribute set, the more expensive it is to append (a near-key makes the
// FD almost trivially satisfied, which should be discouraged). It is a
// view over a Source; the zero value is not usable.
type DistinctCount struct{ src *Source }

// NewDistinctCount builds a distinct-value weighting over a private
// source bound to the instance.
func NewDistinctCount(in *relation.Instance) *DistinctCount { return NewSource(in).DistinctCount() }

// DistinctCount returns the distinct-value view over the source.
func (s *Source) DistinctCount() *DistinctCount { return &DistinctCount{s} }

// Weight returns |Π_Y(I)|, and 0 for the empty set.
func (d *DistinctCount) Weight(y relation.AttrSet) float64 {
	if y.IsEmpty() {
		return 0
	}
	return d.src.profile(y).groups
}

// Name implements Func.
func (d *DistinctCount) Name() string { return "distinct-count" }

// Entropy prices Y by the Shannon entropy (in bits) of the empirical
// distribution of Π_Y(I): another "informativeness" metric the paper
// suggests. Entropy is monotone under projection refinement, so the Func
// contract holds. It is a view over a Source.
type Entropy struct{ src *Source }

// NewEntropy builds an entropy weighting over a private source bound to
// the instance.
func NewEntropy(in *relation.Instance) *Entropy { return &Entropy{NewSource(in)} }

// Weight returns H(Π_Y(I)) in bits, and 0 for the empty set.
func (e *Entropy) Weight(y relation.AttrSet) float64 {
	if y.IsEmpty() {
		return 0
	}
	return e.src.profile(y).entropy
}

// Name implements Func.
func (e *Entropy) Name() string { return "entropy" }

// ByName resolves a weighting by its report name; the instance-backed
// weightings are views over src. A nil src only validates the name: the
// instance-backed views it returns must not be weighed.
func ByName(name string, src *Source) (Func, error) {
	switch name {
	case "attr-count", "count", "":
		return AttrCount{}, nil
	case "distinct-count", "distinct":
		return src.DistinctCount(), nil
	case "entropy":
		return &Entropy{src}, nil
	case "mdl":
		return &MDL{src}, nil
	}
	return nil, fmt.Errorf("weights: unknown weighting %q (want attr-count, distinct-count, entropy, or mdl)", name)
}
