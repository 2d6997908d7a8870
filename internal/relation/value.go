package relation

import "fmt"

// Value is one cell of a V-instance: either a constant drawn from the
// attribute's domain, or a variable vᴬᵢ (Definition 1 of the paper).
//
// Equality semantics:
//   - constant == constant  iff the strings are equal,
//   - variable == variable  iff they are the *same* variable (same ID),
//   - constant == variable  never (a variable instantiates to a fresh value
//     not occurring in the instance).
//
// The zero Value is the constant empty string.
type Value struct {
	s     string // constant payload when isVar is false
	id    int64  // variable identity when isVar is true
	isVar bool
}

// Const returns a constant value.
func Const(s string) Value { return Value{s: s} }

// IsVar reports whether v is a variable.
func (v Value) IsVar() bool { return v.isVar }

// Str returns the constant payload. It panics on variables so that code can
// never silently treat a variable as a value.
func (v Value) Str() string {
	if v.isVar {
		panic("relation: Str called on a variable cell")
	}
	return v.s
}

// VarID returns the variable identity; it panics on constants.
func (v Value) VarID() int64 {
	if !v.isVar {
		panic("relation: VarID called on a constant cell")
	}
	return v.id
}

// Equal implements V-instance cell equality.
func (v Value) Equal(u Value) bool {
	if v.isVar != u.isVar {
		return false
	}
	if v.isVar {
		return v.id == u.id
	}
	return v.s == u.s
}

// Key returns a string that is equal for two values iff Equal holds, for use
// as a hash-map key. Variable keys are prefixed with a byte that cannot
// occur at the start of generator output or CSV data (0x00).
func (v Value) Key() string {
	if v.isVar {
		return fmt.Sprintf("\x00v%d", v.id)
	}
	return v.s
}

// String renders constants verbatim and variables as "?vN".
func (v Value) String() string {
	if v.isVar {
		return fmt.Sprintf("?v%d", v.id)
	}
	return v.s
}

// VarGen hands out variables with process-unique IDs. The zero VarGen is
// ready to use. VarGen is not safe for concurrent use; each repair run owns
// its own generator.
type VarGen struct {
	next int64
}

// VarGenAfter returns a generator whose variables are distinct from every
// variable of in: numbering continues past in.MaxVarID(), so repairing a
// V-instance (a previous repair's output) never hands out a "fresh"
// variable Equal to one already there. On a const-only instance it is the
// zero VarGen.
func VarGenAfter(in *Instance) VarGen { return VarGen{next: in.MaxVarID()} }

// Fresh returns a brand-new variable, distinct from every variable returned
// before by this generator.
func (g *VarGen) Fresh() Value {
	g.next++
	return Value{id: g.next, isVar: true}
}

// Count returns how many variables have been handed out.
func (g *VarGen) Count() int64 { return g.next }
