package repair

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/session"
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
// ones — and asserts identical answers at every step. Each stream runs
// twice: keyed by a warm engine's cached tables and by tables built for
// the call.
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
		const rows = 40
		for range rows {
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
			in.Tuples = append(in.Tuples, tp)
		}
		dirty := make([]bool, rows)
		for t := range dirty {
			dirty[t] = rng.Intn(2) == 0
		}

		warm := session.New(in)
		for _, c := range cons {
			warm.KeyTables().Get(c.LHS)
		}
		streamSeed := rng.Int63()
		return cleanIndexStreamMatches(in, warm.KeyTables(), cons, dirty, streamSeed, vg) &&
			cleanIndexStreamMatches(in, relation.NewKeyTables(in), cons, dirty, streamSeed, vg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// cleanIndexStreamMatches indexes the clean rows of in, then probes and
// adds candidate tuples the way the chase builds them: cells mixed from
// different rows and earlier candidates, plus fresh variables, some
// adopted (coded past the column) before their tuple is added. Those mixes
// reach projections no row holds, so adds and lookups go through the
// overlay.
func cleanIndexStreamMatches(in *relation.Instance, tables *relation.KeyTables, cons []Constraint, dirty []bool, seed int64, vg relation.VarGen) bool {
	rng := rand.New(rand.NewSource(seed))
	width := in.Schema.Width()
	// Added candidates get arena rows of their own past in's, so no
	// entry's row is overwritten.
	const steps = 60
	var ids []int32
	for t, d := range dirty {
		if d {
			ids = append(ids, int32(t))
		}
	}
	out, _ := newRows(in, ids)
	ci, _ := newCleanIndex(in, tables, out, cons, steps)
	ref := newRefCleanIndex(cons)
	// pool[a] holds every value keyed on a so far, with its code.
	type cell struct {
		v    relation.Value
		code int32
	}
	pool := make([][]cell, width)
	for a := range width {
		col, _ := in.Codes(a)
		for t, row := range in.Tuples {
			pool[a] = append(pool[a], cell{row[a], col[t]})
		}
	}
	for t, d := range dirty {
		if !d {
			ref.add(in.Tuples[t])
		}
	}

	tc := newAssignment(width)
	for range steps {
		for a := range width {
			if rng.Intn(8) == 0 {
				tc.vals[a], tc.codes[a] = vg.Fresh(), -1
				continue
			}
			c := pool[a][rng.Intn(len(pool[a]))]
			tc.vals[a], tc.codes[a] = c.v, c.code
		}
		gi, gv, gcode, gok := ci.violation(tc)
		wi, wv, wok := ref.violation(tc.vals)
		if gok != wok || gi != wi || !gv.Equal(wv) {
			return false
		}
		// The returned code is the required value's, among every value
		// keyed on that attribute.
		if gok {
			for _, c := range pool[cons[gi].RHS] {
				if c.v.Equal(gv) != (c.code == gcode) {
					return false
				}
			}
		}
		if rng.Intn(2) == 0 {
			for a := range width {
				if tc.codes[a] < 0 {
					tc.codes[a] = ci.adopt(a, -1)
					pool[a] = append(pool[a], cell{tc.vals[a], tc.codes[a]})
				}
			}
			out.cells = append(out.cells, tc.vals...)
			out.pos = append(out.pos, int32(len(out.cells)/width))
			row := int32(len(out.pos) - 1)
			ci.add(out.row(row), tc.codes, row)
			ref.add(out.row(row))
		}
	}
	return true
}
