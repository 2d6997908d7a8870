package repair

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
)

// refCleanIndex is the seed's string-keyed clean index, kept as the
// equivalence oracle for the coded cleanIndex: same adds, same
// violations, on tuple streams mixing constants, shared variables, and
// variables no other tuple holds. It applies a constraint's
// tuple filter and constant RHS the way the CFD definition reads.
type refCleanIndex struct {
	cons []Constraint
	idx  []map[string]relation.Value
}

func newRefCleanIndex(cons []Constraint) *refCleanIndex {
	r := &refCleanIndex{cons: cons, idx: make([]map[string]relation.Value, len(cons))}
	for i := range cons {
		r.idx[i] = map[string]relation.Value{}
	}
	return r
}

func refKeyOf(t relation.Tuple, X relation.AttrSet) string {
	var b strings.Builder
	X.ForEach(func(a int) bool {
		b.WriteString(t[a].Key())
		b.WriteByte(0x1f)
		return true
	})
	return b.String()
}

func refApplies(c Constraint, t relation.Tuple) bool { return c.Match == nil || c.Match(t) }

func (r *refCleanIndex) add(t relation.Tuple) {
	for i, c := range r.cons {
		if refApplies(c, t) {
			r.idx[i][refKeyOf(t, c.LHS)] = t[c.RHS]
		}
	}
}

func (r *refCleanIndex) violation(tc relation.Tuple) (int, relation.Value, bool) {
	for i, c := range r.cons {
		if !refApplies(c, tc) {
			continue
		}
		if c.Const != "" && !tc[c.RHS].Equal(relation.Const(c.Const)) {
			return i, relation.Const(c.Const), true
		}
		v, ok := r.idx[i][refKeyOf(tc, c.LHS)]
		if ok && !tc[c.RHS].Equal(v) {
			return i, v, true
		}
	}
	return 0, relation.Value{}, false
}

// TestQuickCleanIndexMatchesStringReference drives the code-based
// cleanIndex and the string-keyed reference through identical random
// add/violation interleavings — plain FDs, filtered ones and constant-RHS
// ones — and asserts identical answers at every step.
func TestQuickCleanIndexMatchesStringReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		width := 3 + rng.Intn(3)
		names := make([]string, width)
		for i := range names {
			names[i] = string(rune('A' + i))
		}
		schema := relation.MustSchema(names...)
		in := relation.NewInstance(schema)

		nfd := 1 + rng.Intn(3)
		cons := make([]Constraint, 0, nfd)
		for len(cons) < nfd {
			rhs := rng.Intn(width)
			lhs := relation.NewAttrSet((rhs + 1) % width)
			if rng.Intn(2) == 0 {
				lhs = lhs.Add((rhs + 2) % width)
			}
			c := Constraint{FD: fd.MustNew(lhs, rhs)}
			// A third of the constraints apply only to tuples holding a
			// given constant on some attribute, and a third pin their RHS.
			if rng.Intn(3) == 0 {
				a, want := rng.Intn(width), relation.Const(string(rune('a'+rng.Intn(3))))
				c.Match = func(t relation.Tuple) bool { return t[a].Equal(want) }
			}
			if rng.Intn(3) == 0 {
				c.Const = string(rune('a' + rng.Intn(3)))
			}
			cons = append(cons, c)
		}

		var vg relation.VarGen
		shared := []relation.Value{vg.Fresh(), vg.Fresh()}
		mk := func() relation.Tuple {
			tp := make(relation.Tuple, width)
			for a := range tp {
				switch rng.Intn(10) {
				case 0:
					tp[a] = shared[rng.Intn(len(shared))]
				case 1:
					tp[a] = vg.Fresh()
				default:
					tp[a] = relation.Const(string(rune('a' + rng.Intn(3))))
				}
			}
			return tp
		}
		// The coded index reads the instance's code columns, so the
		// stream is the instance's rows: every row starts dirty (outside
		// the index) and is probed, then maybe added, in row order.
		const steps = 60
		dirty := make([]bool, steps)
		for step := range steps {
			in.Tuples = append(in.Tuples, mk())
			dirty[step] = true
		}
		ci := newCleanIndex(in, in.Tuples, cons, dirty)
		ref := newRefCleanIndex(cons)

		tc := newAssignment(width)
		for step := range steps {
			tp := in.Tuples[step]
			copy(tc.vals, tp)
			ci.load(tc.codes, int32(step))
			gi, gv, gcode, gok := ci.violation(tc)
			wi, wv, wok := ref.violation(tp)
			if gok != wok || gi != wi || !gv.Equal(wv) {
				return false
			}
			// The returned code is the required value's: a row's code
			// holding it, or the overlay code of an absent constant.
			if gok {
				col := ci.cols[cons[gi].RHS]
				for u, row := range in.Tuples {
					if row[cons[gi].RHS].Equal(gv) != (col[u] == gcode) {
						return false
					}
				}
			}
			if rng.Intn(2) == 0 {
				ci.add(tp, tc.codes, int32(step))
				ref.add(tp)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
