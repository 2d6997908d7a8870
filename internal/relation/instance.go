package relation

import (
	"fmt"
	"strings"
)

// Tuple is one row of an instance; Tuple[a] is the cell of attribute a.
type Tuple []Value

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Equal reports cell-wise V-instance equality of two tuples.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// AgreeOn reports whether t and u agree (cell equality) on every attribute
// in the set X. Per V-instance semantics, a cell holding a variable agrees
// only with the very same variable.
func (t Tuple) AgreeOn(u Tuple, X AttrSet) bool {
	agree := true
	X.ForEach(func(a int) bool {
		if !t[a].Equal(u[a]) {
			agree = false
			return false
		}
		return true
	})
	return agree
}

// DiffSet returns the set of attributes on which t and u differ — the
// "difference set" of the pair (Section 5.2 of the paper).
func (t Tuple) DiffSet(u Tuple) AttrSet {
	var d AttrSet
	for a := range t {
		if !t[a].Equal(u[a]) {
			d = d.Add(a)
		}
	}
	return d
}

// Instance is a (V-)instance of a schema: an ordered multiset of tuples.
// Tuple order is stable and tuple indices are used as identities throughout
// the repair algorithms (e.g. vertex-cover membership).
//
// Instances are always handled by pointer: the embedded code cache (see
// Codes) contains a mutex and must not be copied.
type Instance struct {
	Schema *Schema
	Tuples []Tuple

	codes codeCache // lazily built dictionary-code columns; see codes.go
}

// NewInstance returns an empty instance of the schema.
func NewInstance(s *Schema) *Instance {
	return &Instance{Schema: s}
}

// N returns the number of tuples.
func (in *Instance) N() int { return len(in.Tuples) }

// Append adds a tuple, validating its width.
func (in *Instance) Append(t Tuple) error {
	if len(t) != in.Schema.Width() {
		return fmt.Errorf("relation: tuple width %d does not match schema width %d", len(t), in.Schema.Width())
	}
	in.Tuples = append(in.Tuples, t)
	return nil
}

// AppendConsts adds a tuple of constant cells.
func (in *Instance) AppendConsts(vals ...string) error {
	if len(vals) != in.Schema.Width() {
		return fmt.Errorf("relation: %d values for schema width %d", len(vals), in.Schema.Width())
	}
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = Const(v)
	}
	in.Tuples = append(in.Tuples, t)
	return nil
}

// Clone returns a deep copy (tuples and cells). Cached code columns are
// not carried over: a clone that is subsequently mutated starts from an
// empty cache and can never observe stale codes.
func (in *Instance) Clone() *Instance {
	out := &Instance{Schema: in.Schema, Tuples: make([]Tuple, len(in.Tuples))}
	for i, t := range in.Tuples {
		out.Tuples[i] = t.Clone()
	}
	return out
}

// Project returns the values of tuple i on the attributes of X, joined into
// a hashable key. Variable cells embed their identity so that distinct
// variables never collide with constants or each other.
func (in *Instance) Project(i int, X AttrSet) string {
	var b strings.Builder
	X.ForEach(func(a int) bool {
		b.WriteString(in.Tuples[i][a].Key())
		b.WriteByte(0x1f) // unit separator: cannot occur in CSV fields we read
		return true
	})
	return b.String()
}

// DiffCells returns the set of cell coordinates at which in and other hold
// non-equal values: Δd(I, I′) of the paper. Both instances must have the
// same schema width and tuple count (data repairs never add or drop tuples).
func (in *Instance) DiffCells(other *Instance) ([]CellRef, error) {
	if in.Schema.Width() != other.Schema.Width() {
		return nil, fmt.Errorf("relation: schema width mismatch %d vs %d", in.Schema.Width(), other.Schema.Width())
	}
	if len(in.Tuples) != len(other.Tuples) {
		return nil, fmt.Errorf("relation: tuple count mismatch %d vs %d", len(in.Tuples), len(other.Tuples))
	}
	var out []CellRef
	for i := range in.Tuples {
		for a := range in.Tuples[i] {
			if !in.Tuples[i][a].Equal(other.Tuples[i][a]) {
				out = append(out, CellRef{Tuple: i, Attr: a})
			}
		}
	}
	return out, nil
}

// CellRef names one cell of an instance.
type CellRef struct {
	Tuple int
	Attr  int
}

// String renders the reference as "t3[Phone]"-style when given a schema via
// Format; the bare form is "t3[5]".
func (c CellRef) String() string { return fmt.Sprintf("t%d[%d]", c.Tuple, c.Attr) }

// Format renders the reference with the attribute name.
func (c CellRef) Format(s *Schema) string {
	return fmt.Sprintf("t%d[%s]", c.Tuple, s.Name(c.Attr))
}

// Ground instantiates every variable of the V-instance with a concrete
// fresh constant, returning a plain instance. Fresh constants are formed as
// "<prefix><n>" and are guaranteed distinct from every constant occurring in
// the instance and from each other, satisfying Definition 1.
func (in *Instance) Ground(prefix string) *Instance {
	used := make(map[string]bool)
	for _, t := range in.Tuples {
		for _, v := range t {
			if !v.IsVar() {
				used[v.Str()] = true
			}
		}
	}
	assigned := make(map[int64]string)
	next := 0
	fresh := func(id int64) string {
		if s, ok := assigned[id]; ok {
			return s
		}
		for {
			cand := fmt.Sprintf("%s%d", prefix, next)
			next++
			if !used[cand] {
				used[cand] = true
				assigned[id] = cand
				return cand
			}
		}
	}
	out := in.Clone()
	for _, t := range out.Tuples {
		for a, v := range t {
			if v.IsVar() {
				t[a] = Const(fresh(v.VarID()))
			}
		}
	}
	return out
}

// String renders a small instance as an aligned table; intended for
// examples and debugging, not for large data.
func (in *Instance) String() string {
	w := make([]int, in.Schema.Width())
	for a := 0; a < in.Schema.Width(); a++ {
		w[a] = len(in.Schema.Name(a))
	}
	for _, t := range in.Tuples {
		for a, v := range t {
			if l := len(v.String()); l > w[a] {
				w[a] = l
			}
		}
	}
	var b strings.Builder
	for a := 0; a < in.Schema.Width(); a++ {
		fmt.Fprintf(&b, "%-*s  ", w[a], in.Schema.Name(a))
	}
	b.WriteByte('\n')
	for _, t := range in.Tuples {
		for a, v := range t {
			fmt.Fprintf(&b, "%-*s  ", w[a], v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
