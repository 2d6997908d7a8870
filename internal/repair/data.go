// Package repair implements the paper's repair algorithms: Repair_Data_FDs
// (Algorithm 1), the tuple-by-tuple V-instance data repair Repair_Data
// (Algorithm 4) with Find_Assignment (Algorithm 5), and the multi-repair
// generators of Section 7 (Range-Repair, Algorithm 6, and the
// Sampling-Repair baseline).
//
// Algorithm 4 has one implementation, Rewrite, over one clean index whose
// constraints are FDs optionally narrowed by a tuple filter and a constant
// RHS. It has three callers: RepairData (plain FDs), RepairDataPinned
// (FDs under user-pinned cells) and the cfd package's CFD repair.
//
// The entry points are context-first: the FD-modification searches honor
// cancellation (returning context.Cause), Session.StreamRange delivers
// Range-Repair's frontier incrementally with Config.Progress observability,
// and validation failures are the structured errors of errors.go
// (ErrEmptyFDSet, ErrEmptyInstance, ErrSchemaMismatch wrappers).
package repair

import (
	"fmt"
	"math/rand"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/session"
)

// DataRepair is the result of Repair_Data: a V-instance satisfying the
// target FD set, the cells changed relative to the input, and the vertex
// cover whose tuples were rewritten.
type DataRepair struct {
	Instance *relation.Instance
	Changed  []relation.CellRef
	Cover    []int32
}

// NumChanges returns |Δd(I, I′)|, the paper's data-repair distance.
func (d *DataRepair) NumChanges() int { return len(d.Changed) }

// RepairData implements Algorithm 4: it returns an instance that satisfies
// sigma, obtained from in by rewriting only tuples of a vertex cover of the
// conflict graph, changing at most min{|R|−1, |Σ|} cells per rewritten
// tuple (Theorem 3). If cover is nil, a 2-approximate minimum vertex cover
// is computed here; callers holding a cover from the FD search should pass
// it so the δP ≤ τ accounting matches exactly.
//
// The seed drives the random tuple and attribute orders the algorithm
// prescribes; fixed seeds give reproducible repairs. A non-nil eng shares
// its warm conflict-analysis arenas for the cover computation (it must be
// bound to in); nil uses a private engine. The engine is only consulted
// when cover is nil.
func RepairData(in *relation.Instance, sigma fd.Set, cover []int32, seed int64, eng *session.Engine) (*DataRepair, error) {
	if cover == nil {
		var err error
		if cover, err = coverOf(eng, in, sigma, nil); err != nil {
			return nil, err
		}
	}
	return repairFDs(in, sigma, cover, nil, seed)
}

// RepairDataPinned is Repair_Data under hard constraints in the spirit of
// the paper's reference [3] ("… under hard constraints"): cells in pinned
// must keep their values — they are user-verified ground truth. The
// algorithm seeds each rewritten tuple's Fixed_Attrs with its pinned
// attributes, so the chase never overwrites them; if a violating tuple's
// pinned cells alone already contradict the clean part (no valid
// assignment exists even before any free attribute is fixed), the repair
// is infeasible and an error identifies the tuple.
//
// Pinning also constrains the vertex cover: it keeps pinned tuples out
// whenever a valid cover allows it, and a conflict edge between two
// fully-pinned tuples cannot be repaired at all. With no pins the result
// is RepairData's.
//
// A non-nil eng shares its warm conflict-analysis arenas for the cover
// computation (it must be bound to in); nil uses a private engine.
func RepairDataPinned(in *relation.Instance, sigma fd.Set, pinned map[relation.CellRef]bool, seed int64, eng *session.Engine) (*DataRepair, error) {
	pins := make(map[int32]relation.AttrSet)
	for c, ok := range pinned {
		if !ok {
			continue
		}
		p := pins[int32(c.Tuple)]
		if c.Attr >= 0 && c.Attr < in.Schema.Width() {
			p = p.Add(c.Attr)
		}
		pins[int32(c.Tuple)] = p
	}
	cover, err := coverOf(eng, in, sigma, func(t int32) bool { _, ok := pins[t]; return ok })
	if err != nil {
		return nil, err
	}
	return repairFDs(in, sigma, cover, pins, seed)
}

// coverOf returns the 2-approximate vertex cover of sigma's conflict graph
// over in, keeping tuples protected reports (nil: none) out of it where a
// valid cover allows.
func coverOf(eng *session.Engine, in *relation.Instance, sigma fd.Set, protected func(int32) bool) ([]int32, error) {
	eng, err := session.For(eng, in)
	if err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	an := eng.Acquire(sigma)
	defer eng.Release(an)
	return an.CoverAvoiding(nil, protected), nil
}

// repairFDs rewrites the cover tuples for plain FDs and verifies the result.
func repairFDs(in *relation.Instance, sigma fd.Set, cover []int32, pins map[int32]relation.AttrSet, seed int64) (*DataRepair, error) {
	cons := make([]Constraint, len(sigma))
	for i, f := range sigma {
		cons[i] = Constraint{FD: f}
	}
	out, changed, err := Rewrite(in, cons, cover, pins, seed)
	if err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	// Safety net: a wrong cover (not actually covering every conflict)
	// would leave violations among the "clean" tuples that the per-tuple
	// loop never examines. One linear verification pass catches it.
	if v := sigma.FirstViolation(out); v != nil {
		return nil, fmt.Errorf("repair: instance still violates %s between tuples %d and %d; the supplied cover is not a vertex cover",
			sigma[v.FD], v.T1, v.T2)
	}
	return &DataRepair{Instance: out, Changed: changed, Cover: cover}, nil
}

// Constraint is one constraint of the clean index: an FD, optionally
// restricted to the tuples Match accepts (a CFD's LHS pattern) and
// optionally requiring every such tuple's RHS to be the constant Const (a
// CFD's constant RHS pattern). With Match nil and Const empty it is the
// plain FD.
type Constraint struct {
	fd.FD
	Match func(relation.Tuple) bool
	Const string
}

// Rewrite is Algorithm 4's loop, the one every data repair runs: it
// clones in, then visits the dirty tuples of order in a seeded random
// order, replacing each by a valid assignment against the clean part
// (every tuple outside order, plus the tuples already rewritten) while
// keeping as many of its cells as the random attribute order allows. A
// tuple's pins are its Fixed_Attrs from the start; an unpinned tuple
// starts from one random attribute. It returns the rewritten instance and
// the changed cells, or an error naming the first tuple whose starting
// attributes admit no valid assignment. The caller verifies the result:
// Rewrite only sees conflicts that involve a dirty tuple.
func Rewrite(in *relation.Instance, cons []Constraint, order []int32, pins map[int32]relation.AttrSet, seed int64) (*relation.Instance, []relation.CellRef, error) {
	out := in.Clone()
	rng := rand.New(rand.NewSource(seed))
	var vg relation.VarGen

	dirty := make(map[int32]bool, len(order))
	for _, t := range order {
		dirty[t] = true
	}
	ci := newCleanIndex(out, cons, dirty)

	order = append([]int32(nil), order...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	width := in.Schema.Width()
	var changed []relation.CellRef
	for _, ti := range order {
		t := out.Tuples[ti]
		pin := pins[ti]
		attrs := rng.Perm(width)

		fixed := pin
		if fixed.IsEmpty() {
			fixed = relation.NewAttrSet(attrs[0])
		}
		tc, ok := ci.findAssignment(t, fixed, &vg)
		if !ok {
			// Theorem 3 shows a valid assignment always exists with one
			// fixed attribute when the clean part is consistent; pins may
			// rule it out.
			if pin.IsEmpty() {
				return nil, nil, fmt.Errorf("no valid assignment for tuple %d with one fixed attribute", ti)
			}
			return nil, nil, fmt.Errorf("tuple %d cannot be repaired: its pinned cells %s conflict with the clean part of the instance", ti, pin)
		}
		for _, a := range attrs {
			if fixed.Contains(a) {
				continue
			}
			fixed = fixed.Add(a)
			if tc2, ok := ci.findAssignment(t, fixed, &vg); ok {
				tc = tc2
				continue
			}
			// No assignment keeps t[a]: adopt the previous valid
			// assignment's value for a (Algorithm 4, line 11).
			if !t[a].Equal(tc[a]) {
				t[a] = tc[a]
				changed = append(changed, relation.CellRef{Tuple: int(ti), Attr: a})
			}
		}
		ci.add(t)
	}
	out.InvalidateCodes() // the loop above rewrote cells in place
	return out, changed, nil
}

// cleanIndex indexes the satisfied part of the instance (I′ \ C2opt) per
// constraint: LHS projection code → the unique RHS value of that group
// among the tuples the constraint applies to. Because the clean part
// satisfies the constraints, the RHS value per code is single-valued.
// Projections are interned by per-constraint ProjCoders over dictionaries
// shared across the constraints, so indexing and probing never build
// string keys.
type cleanIndex struct {
	cons   []Constraint
	coders []*relation.ProjCoder
	idx    []map[int32]relation.Value
}

func newCleanIndex(in *relation.Instance, cons []Constraint, dirty map[int32]bool) *cleanIndex {
	dicts := relation.NewDicts(in.Schema.Width())
	ci := &cleanIndex{
		cons:   cons,
		coders: make([]*relation.ProjCoder, len(cons)),
		idx:    make([]map[int32]relation.Value, len(cons)),
	}
	for i, c := range cons {
		ci.coders[i] = relation.NewProjCoder(c.LHS, dicts)
		ci.idx[i] = make(map[int32]relation.Value, in.N())
	}
	for t := 0; t < in.N(); t++ {
		if dirty[int32(t)] {
			continue
		}
		ci.add(in.Tuples[t])
	}
	return ci
}

// add registers a tuple as clean.
func (ci *cleanIndex) add(t relation.Tuple) {
	for i, c := range ci.cons {
		if c.Match == nil || c.Match(t) {
			ci.idx[i][ci.coders[i].Code(t)] = t[c.RHS]
		}
	}
}

// violation returns the first constraint (in order) that tc violates —
// against its constant RHS or against some clean tuple — along with the
// value tc's RHS must take. The non-interning Lookup keeps the fresh
// variables of candidate assignments out of the dictionaries: an unseen
// cell means no clean tuple can share the key.
func (ci *cleanIndex) violation(tc relation.Tuple) (idx int, rhs relation.Value, found bool) {
	for i, c := range ci.cons {
		if c.Match != nil && !c.Match(tc) {
			continue
		}
		got := tc[c.RHS]
		if c.Const != "" && (got.IsVar() || got.Str() != c.Const) {
			return i, relation.Const(c.Const), true
		}
		k, ok := ci.coders[i].Lookup(tc)
		if !ok {
			continue
		}
		v, ok := ci.idx[i][k]
		if ok && !got.Equal(v) {
			return i, v, true
		}
	}
	return 0, relation.Value{}, false
}

// findAssignment implements Algorithm 5: starting from tc agreeing with t
// on the fixed attributes and holding fresh variables elsewhere, it chases
// violations against the clean part, copying the required RHS value
// whenever the violated constraint's RHS is not fixed. It returns ok=false
// iff a violated constraint's RHS is fixed — no valid assignment exists
// (Lemma 2: sound and complete). Every step fixes one more attribute, so
// the chase ends within |R| steps.
func (ci *cleanIndex) findAssignment(t relation.Tuple, fixed relation.AttrSet, vg *relation.VarGen) (relation.Tuple, bool) {
	tc := make(relation.Tuple, len(t))
	for a := range t {
		if fixed.Contains(a) {
			tc[a] = t[a]
		} else {
			tc[a] = vg.Fresh()
		}
	}
	for {
		i, v, found := ci.violation(tc)
		if !found {
			return tc, true
		}
		a := ci.cons[i].RHS
		if fixed.Contains(a) {
			return nil, false
		}
		tc[a] = v
		fixed = fixed.Add(a)
	}
}
