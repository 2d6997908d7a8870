// Package repair implements the paper's repair algorithms: Repair_Data_FDs
// (Algorithm 1), the tuple-by-tuple V-instance data repair Repair_Data
// (Algorithm 4) with Find_Assignment (Algorithm 5), and the multi-repair
// generators of Section 7 (Range-Repair, Algorithm 6, and the
// Sampling-Repair baseline).
//
// Algorithm 4 has one implementation, Rewrite, over one clean index whose
// constraints are FDs optionally narrowed by a tuple filter and a constant
// RHS. It has three callers: RepairData (plain FDs), RepairDataPinned
// (FDs under user-pinned cells) and the cfd package's CFD repair. Rewrite
// works on the int32 code columns the input already carries and keys the
// clean part by the session engine's per-snapshot LHS key tables
// (relation.KeyTables), so a frontier point builds no table an earlier
// point over the same snapshot built: its own work is one linear fill of
// RHS slots plus an overlay for the keys its rewritten tuples create. The
// point's cover comes from the session's component evaluator, which
// memoizes it per goal state. Rewrite copies only the rewritten tuples,
// into one cover-sized arena: a DataRepair reads every other row from the
// input and builds a whole output instance only when Instance is called.
// Rewrite also verifies its own output against the same index, so no
// caller re-checks it.
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
	"slices"
	"sync"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/session"
)

// DataRepair is the result of Repair_Data: a V-instance satisfying the
// target FD set, the cells changed relative to the input, and the vertex
// cover whose tuples were rewritten. It holds the input and the rewritten
// rows only; Value reads a cell of the repaired instance, and Instance
// builds the whole instance on first request. Do not mutate the input
// while the repair is in use.
type DataRepair struct {
	Changed []relation.CellRef
	Cover   []int32

	out *rows // without pos: rows are found by binary search in ids

	once sync.Once
	inst *relation.Instance
}

// NumChanges returns |Δd(I, I′)|, the paper's data-repair distance.
func (d *DataRepair) NumChanges() int { return len(d.Changed) }

// Value returns cell c of the repaired instance: the rewritten row's cell
// for a tuple in the cover, the input's otherwise. Reading a changed
// cell's new value this way builds no instance.
func (d *DataRepair) Value(c relation.CellRef) relation.Value {
	if i, ok := slices.BinarySearch(d.out.ids, int32(c.Tuple)); ok {
		return d.out.arena(i)[c.Attr]
	}
	return d.out.in.Tuples[c.Tuple][c.Attr]
}

// Instance returns the repaired V-instance, building it on the first call.
// It shares every row outside the rewritten tuples with the input, so it is
// read-only: Clone it before changing a cell.
func (d *DataRepair) Instance() *relation.Instance {
	d.once.Do(func() {
		tuples := slices.Clone(d.out.in.Tuples)
		for i, t := range d.out.ids {
			tuples[t] = d.out.arena(i)
		}
		d.inst = &relation.Instance{Schema: d.out.in.Schema, Tuples: tuples}
	})
	return d.inst
}

// RepairData implements Algorithm 4: it returns an instance that satisfies
// sigma, obtained from in by rewriting only the tuples of cover, a vertex
// cover of the conflict graph, changing at most min{|R|−1, |Σ|} cells per
// rewritten tuple (Theorem 3). The cover is the caller's: the FD search
// sized it, so the δP ≤ τ accounting matches exactly. A nil cover is the
// empty one, which suits a sigma the instance already satisfies; a cover
// that misses a conflict is an error. To have a cover computed, call
// RepairDataPinned with no pins.
//
// The seed drives the random tuple and attribute orders the algorithm
// prescribes; fixed seeds give reproducible repairs. A non-nil eng (it
// must be bound to in) shares its cached key tables for the clean index;
// nil uses a private engine.
func RepairData(in *relation.Instance, sigma fd.Set, cover []int32, seed int64, eng *session.Engine) (*DataRepair, error) {
	eng, err := session.For(eng, in)
	if err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	return repairFDs(eng, sigma, cover, nil, seed)
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
// RepairDataPinned computes its own vertex cover: a 2-approximate minimum
// cover of sigma's conflict graph. Pinning constrains it: it keeps pinned
// tuples out whenever a valid cover allows it, and a conflict edge between
// two fully-pinned tuples cannot be repaired at all. With no pins it is
// RepairData over that cover.
//
// A non-nil eng shares its warm conflict-analysis arenas and key tables
// (it must be bound to in); nil uses a private engine.
func RepairDataPinned(in *relation.Instance, sigma fd.Set, pinned map[relation.CellRef]bool, seed int64, eng *session.Engine) (*DataRepair, error) {
	eng, err := session.For(eng, in)
	if err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
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
	cover := coverOf(eng, sigma, func(t int32) bool { _, ok := pins[t]; return ok })
	return repairFDs(eng, sigma, cover, pins, seed)
}

// coverOf returns the 2-approximate vertex cover of sigma's conflict graph
// over the engine's instance, keeping tuples protected reports (nil: none)
// out of it where a valid cover allows.
func coverOf(eng *session.Engine, sigma fd.Set, protected func(int32) bool) []int32 {
	an := eng.Acquire(sigma)
	defer eng.Release(an)
	return an.CoverAvoiding(nil, protected)
}

// repairFDs rewrites the cover tuples of the engine's instance for plain
// FDs.
func repairFDs(eng *session.Engine, sigma fd.Set, cover []int32, pins map[int32]relation.AttrSet, seed int64) (*DataRepair, error) {
	cons := make([]Constraint, len(sigma))
	for i, f := range sigma {
		cons[i] = Constraint{FD: f}
	}
	d, err := Rewrite(eng, cons, cover, pins, seed)
	if err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	return d, nil
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

// Rewrite is Algorithm 4's loop, the one every data repair runs: it visits
// the dirty tuples of order in a seeded random order, replacing each by a
// valid assignment against the clean part (every tuple outside order, plus
// the tuples already rewritten) while keeping as many of its cells as the
// random attribute order allows. A tuple's pins are its Fixed_Attrs from
// the start; an unpinned tuple starts from one random attribute. A tuple
// listed twice in order is rewritten once.
//
// Rewrite repairs eng.In and verifies its own result, so callers do not:
// filling the clean index checks each clean row against the clean rows
// before it, and each rewritten tuple is checked against every row
// indexed before it. It returns the repair, whose Cover is order as
// given, or an error: the given tuples are no vertex cover, or the first
// tuple whose starting attributes admit no valid assignment.
//
// The loop runs on the code columns the instance already carries
// (Instance.Codes, or columns a producer installed with SetCodes) and
// builds no value dictionary. It keys the clean part by the engine's LHS
// key tables: a warm engine has them from earlier repairs of the same
// snapshot. It copies only the order tuples, into one arena, and builds no
// output instance (see DataRepair.Instance); the input must not be mutated
// while the repair is in use. Fresh variables continue past the input's
// largest variable identity, so a V-instance input never sees a "fresh"
// variable equal to one it holds.
func Rewrite(eng *session.Engine, cons []Constraint, order []int32, pins map[int32]relation.AttrSet, seed int64) (*DataRepair, error) {
	in := eng.In
	rng := rand.New(rand.NewSource(seed))
	vg := relation.VarGenAfter(in)
	width := in.Schema.Width()

	cover := order
	out, order := newRows(in, order)
	ci, err := newCleanIndex(in, eng.KeyTables(), out, cons, len(order))
	if err != nil {
		return nil, err
	}

	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	cur, try := newAssignment(width), newAssignment(width)
	codes := make([]int32, width)
	attrs := make([]int, width)
	var changed []relation.CellRef
	for _, ti := range order {
		t := out.row(ti)
		ci.load(codes, ti)
		pin := pins[ti]
		perm(rng, attrs)

		fixed := pin
		if fixed.IsEmpty() {
			fixed = relation.NewAttrSet(attrs[0])
		}
		if !ci.findAssignment(cur, t, codes, fixed, &vg) {
			// Theorem 3 shows a valid assignment always exists with one
			// fixed attribute when the clean part is consistent; pins may
			// rule it out.
			if pin.IsEmpty() {
				return nil, fmt.Errorf("no valid assignment for tuple %d with one fixed attribute", ti)
			}
			return nil, fmt.Errorf("tuple %d cannot be repaired: its pinned cells %s conflict with the clean part of the instance", ti, pin)
		}
		for _, a := range attrs {
			if fixed.Contains(a) {
				continue
			}
			fixed = fixed.Add(a)
			if ci.findAssignment(try, t, codes, fixed, &vg) {
				cur, try = try, cur
				continue
			}
			// No assignment keeps t[a]: adopt the previous valid
			// assignment's value for a (Algorithm 4, line 11).
			if !t[a].Equal(cur.vals[a]) {
				t[a] = cur.vals[a]
				codes[a] = ci.adopt(a, cur.codes[a])
				changed = append(changed, relation.CellRef{Tuple: int(ti), Attr: a})
			}
		}
		if i, _, _, bad := ci.violation(&assignment{vals: t, codes: codes}); bad {
			return nil, fmt.Errorf("internal error: rewritten tuple %d violates %s", ti, cons[i].Format(in.Schema))
		}
		ci.add(t, codes, ti)
	}
	out.pos = nil // n entries; the repair keeps only cover-sized state
	return &DataRepair{Changed: changed, Cover: cover, out: out}, nil
}

// rows is the output of one Rewrite: the input's rows, with the rewritten
// ones read from a cover-sized arena instead.
type rows struct {
	in *relation.Instance
	// pos[t] is 1 + row t's index in the arena, or 0 for a row read from
	// the input.
	pos   []int32
	ids   []int32        // the arena's tuples, ascending
	cells relation.Tuple // the arena: ids' rows, in order, width cells each
}

// newRows copies the rows of the tuples in order into a fresh arena. It
// also returns those tuples without repeats, in order of first appearance.
func newRows(in *relation.Instance, order []int32) (*rows, []int32) {
	width := in.Schema.Width()
	r := &rows{in: in, pos: make([]int32, in.N())}
	uniq := make([]int32, 0, len(order))
	for _, t := range order {
		if r.pos[t] == 0 {
			r.pos[t] = 1
			uniq = append(uniq, t)
		}
	}
	r.ids = slices.Clone(uniq)
	slices.Sort(r.ids)
	r.cells = make(relation.Tuple, len(r.ids)*width)
	for i, t := range r.ids {
		r.pos[t] = int32(i + 1)
		copy(r.cells[i*width:], in.Tuples[t])
	}
	return r, uniq
}

// arena returns the arena's row i.
func (r *rows) arena(i int) relation.Tuple {
	w := r.in.Schema.Width()
	return r.cells[i*w : (i+1)*w : (i+1)*w]
}

// row returns row t of the output.
func (r *rows) row(t int32) relation.Tuple {
	if p := r.pos[t]; p > 0 {
		return r.arena(int(p - 1))
	}
	return r.in.Tuples[t]
}

// perm fills p with the permutation rng.Perm(len(p)) returns, drawing the
// same random numbers, without allocating.
func perm(rng *rand.Rand, p []int) {
	for i := range p {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}

// assignment is one candidate tuple of Algorithm 5: its cells beside
// their codes. A fresh variable's code is -1 until the loop adopts it.
type assignment struct {
	vals  relation.Tuple
	codes []int32
}

func newAssignment(width int) *assignment {
	return &assignment{vals: make(relation.Tuple, width), codes: make([]int32, width)}
}

// cleanIndex indexes the satisfied part of the instance (I′ \ C2opt) per
// constraint: LHS key → the unique RHS of that group among the tuples the
// constraint applies to, as its code and the row that holds its value.
// Because the clean part satisfies the constraints, the RHS per key is
// single-valued.
//
// Everything is coded against the source instance's code columns. A
// cell's code is its row's column code, the code of an RHS copied from the
// index, a constant's code resolved once per Rewrite, or, for a fresh
// variable the loop adopts, a new overlay code at or above the column's
// count. Fresh variables are distinct from every input value, so these
// codes keep "equal codes iff Equal cells" without a value dictionary. An
// LHS key is a key id of the snapshot's table for the LHS, or, for a
// projection only rewritten tuples hold, an id the constraint's overlay
// hands out past the table's.
type cleanIndex struct {
	cons  []Constraint
	out   *rows // an entry's RHS value is out.row(row)[RHS]
	attrs []int // every attribute a constraint reads
	// cols[a] is attribute a's source code column; ncode[a] counts its
	// codes, overlay codes included.
	cols   [][]int32
	ncode  []int32
	consts []int32                // per constraint, the code of its constant RHS; -1 if none
	keys   []*relation.KeyOverlay // per constraint; nil for an empty LHS, whose key is 0
	slots  [][]entry              // slots[i][key]
}

// entry is one indexed RHS; row < 0 marks a key no clean tuple has.
type entry struct{ code, row int32 }

// newCleanIndex indexes the rows of in that out reads from the input,
// coded by in's columns and keyed by the tables of in. Entries refer to
// rows of out, whose arena rows the caller rewrites. rewrites bounds the
// add calls that follow for rows outside the index. The error names the
// first indexed row that conflicts with an earlier one or misses a
// constant: the arena rows are no vertex cover. The index is complete
// either way.
func newCleanIndex(in *relation.Instance, tables *relation.KeyTables, out *rows, cons []Constraint, rewrites int) (*cleanIndex, error) {
	width := in.Schema.Width()
	ci := &cleanIndex{
		cons:   cons,
		out:    out,
		cols:   make([][]int32, width),
		ncode:  make([]int32, width),
		consts: make([]int32, len(cons)),
		keys:   make([]*relation.KeyOverlay, len(cons)),
		slots:  make([][]entry, len(cons)),
	}
	var used relation.AttrSet
	for _, c := range cons {
		used = used.Union(c.LHS).Add(c.RHS)
	}
	ci.attrs = used.Attrs()
	for _, a := range ci.attrs {
		ci.cols[a], ci.ncode[a] = in.Codes(a)
	}
	for i := range cons {
		ci.consts[i] = ci.constCode(i)
	}
	var uncovered error
	for i, c := range cons {
		var ids []int32
		nkeys := int32(1)
		if !c.LHS.IsEmpty() {
			kt := tables.Get(c.LHS)
			ids, nkeys = kt.IDs(), kt.Len()
			ci.keys[i] = kt.Overlay(rewrites)
		}
		// Each rewritten tuple adds at most one key past the table's.
		s := make([]entry, nkeys, int(nkeys)+rewrites)
		for k := range s {
			s[k].row = -1
		}
		rhs := ci.cols[c.RHS]
		for t, p := range out.pos[:in.N()] {
			if p > 0 || c.Match != nil && !c.Match(in.Tuples[t]) {
				continue
			}
			var k int32
			if ids != nil {
				k = ids[t]
			}
			if uncovered == nil {
				if want := ci.consts[i]; want >= 0 && rhs[t] != want {
					uncovered = fmt.Errorf("tuple %d violates the constant %q of %s; the supplied cover is not a vertex cover",
						t, c.Const, c.Format(in.Schema))
				} else if e := s[k]; e.row >= 0 && e.code != rhs[t] {
					uncovered = fmt.Errorf("tuples %d and %d violate %s; the supplied cover is not a vertex cover",
						e.row, t, c.Format(in.Schema))
				}
			}
			s[k] = entry{code: rhs[t], row: int32(t)}
		}
		ci.slots[i] = s
	}
	return ci, uncovered
}

// constCode returns the code of constraint i's constant RHS in its RHS
// column: the code of a source cell holding it, or else one overlay code
// shared by every constraint with the same attribute and constant.
func (ci *cleanIndex) constCode(i int) int32 {
	c := ci.cons[i]
	if c.Const == "" {
		return -1
	}
	for j := range i {
		if ci.cons[j].RHS == c.RHS && ci.cons[j].Const == c.Const {
			return ci.consts[j]
		}
	}
	v := relation.Const(c.Const)
	for t, row := range ci.out.in.Tuples {
		if row[c.RHS].Equal(v) {
			return ci.cols[c.RHS][t]
		}
	}
	code := ci.ncode[c.RHS]
	ci.ncode[c.RHS]++
	return code
}

// load fills codes with row t's current codes on the indexed attributes.
func (ci *cleanIndex) load(codes []int32, t int32) {
	for _, a := range ci.attrs {
		codes[a] = ci.cols[a][t]
	}
}

// adopt returns the code a cell gets when the loop adopts a candidate's
// value of attribute a: the candidate's code, or a new overlay code for a
// fresh variable.
func (ci *cleanIndex) adopt(a int, code int32) int32 {
	if code < 0 {
		code = ci.ncode[a]
		ci.ncode[a]++
	}
	return code
}

// add registers row t, holding tuple tup with the given codes, as clean.
func (ci *cleanIndex) add(tup relation.Tuple, codes []int32, t int32) {
	for i, c := range ci.cons {
		if c.Match != nil && !c.Match(tup) {
			continue
		}
		var k int32
		if o := ci.keys[i]; o != nil {
			k = o.Intern(codes)
		}
		s := ci.slots[i]
		for int(k) >= len(s) {
			s = append(s, entry{row: -1})
		}
		s[k] = entry{code: codes[c.RHS], row: t}
		ci.slots[i] = s
	}
}

// lookup returns the clean RHS entry of constraint i for a tuple with the
// given codes. A negative code is a fresh variable, which no clean tuple
// holds.
func (ci *cleanIndex) lookup(i int, codes []int32) (entry, bool) {
	var k int32
	if o := ci.keys[i]; o != nil {
		var ok bool
		if k, ok = o.Lookup(codes); !ok {
			return entry{}, false
		}
	}
	s := ci.slots[i]
	if int(k) >= len(s) || s[k].row < 0 {
		return entry{}, false
	}
	return s[k], true
}

// violation returns the first constraint (in order) that tc violates —
// against its constant RHS or against some clean tuple — along with the
// value tc's RHS must take and its code.
func (ci *cleanIndex) violation(tc *assignment) (idx int, rhs relation.Value, code int32, found bool) {
	for i, c := range ci.cons {
		if c.Match != nil && !c.Match(tc.vals) {
			continue
		}
		got := tc.codes[c.RHS]
		if c.Const != "" && got != ci.consts[i] {
			return i, relation.Const(c.Const), ci.consts[i], true
		}
		if e, ok := ci.lookup(i, tc.codes); ok && e.code != got {
			return i, ci.out.row(e.row)[c.RHS], e.code, true
		}
	}
	return 0, relation.Value{}, 0, false
}

// findAssignment implements Algorithm 5 into tc: starting from t's cells
// (with their codes) on the fixed attributes and fresh variables
// elsewhere, it chases violations against the clean part, copying the
// required RHS whenever the violated constraint's RHS is not fixed. It
// returns false iff a violated constraint's RHS is fixed — no valid
// assignment exists (Lemma 2: sound and complete). Every step fixes one
// more attribute, so the chase ends within |R| steps.
func (ci *cleanIndex) findAssignment(tc *assignment, t relation.Tuple, codes []int32, fixed relation.AttrSet, vg *relation.VarGen) bool {
	for a := range t {
		if fixed.Contains(a) {
			tc.vals[a], tc.codes[a] = t[a], codes[a]
		} else {
			tc.vals[a], tc.codes[a] = vg.Fresh(), -1
		}
	}
	for {
		i, v, code, found := ci.violation(tc)
		if !found {
			return true
		}
		a := ci.cons[i].RHS
		if fixed.Contains(a) {
			return false
		}
		tc.vals[a], tc.codes[a] = v, code
		fixed = fixed.Add(a)
	}
}
