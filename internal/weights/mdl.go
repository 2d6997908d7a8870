package weights

import (
	"relatrust/internal/relation"
)

// MDL prices an LHS extension by the growth in description length of
// modeling the instance with the extended FD — the weighting family the
// paper points to via its references [5] (Chiang & Miller's unified model)
// and [11] (partial determinations). Modeling X → A costs, to first
// order, one A-value per distinct X-value: DL(X → A) ≈ |Π_X(I)| · log₂|A|
// bits, because the model must store the function table from X-groups to
// A-values. Appending Y multiplies the table's rows up to |Π_{XY}(I)|, so
//
//	w(Y) relative to a base X  =  (|Π_{XY}| − |Π_X|) · log₂(distinct A).
//
// Since the Func interface prices Y in isolation (the search sums
// per-position weights and caches per set), this implementation uses the
// base-free form DL(Y) = |Π_Y(I)| · log₂(avg column cardinality), which is
// non-negative, monotone (projections refine), and zero for the empty set
// — ordering candidate extensions the same way the relative form does for
// a fixed FD. It is a view over a Source.
type MDL struct{ src *Source }

// NewMDL builds the description-length weighting over a private source
// bound to the instance.
func NewMDL(in *relation.Instance) *MDL { return &MDL{NewSource(in)} }

// Weight returns |Π_Y(I)| · log₂(avg cardinality), 0 for the empty set.
func (m *MDL) Weight(y relation.AttrSet) float64 {
	if y.IsEmpty() {
		return 0
	}
	return m.src.profile(y).groups * m.src.valueBits()
}

// Name implements Func.
func (m *MDL) Name() string { return "mdl" }
