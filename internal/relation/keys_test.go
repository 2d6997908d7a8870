package relation

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickKeyTableIDsMatchProjections checks a key table against the
// projections themselves on random instances with shared variables: two
// rows share an id iff they agree on X, ids are dense in [0, Len()), and
// an overlay maps a row's codes to the row's id. The tables of X's
// prefixes come from the same cache, so each set is built once.
func TestQuickKeyTableIDsMatchProjections(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		width := 2 + rng.Intn(4)
		names := make([]string, width)
		for i := range names {
			names[i] = string(rune('A' + i))
		}
		in := NewInstance(MustSchema(names...))
		var vg VarGen
		shared := vg.Fresh()
		for range 1 + rng.Intn(60) {
			tp := make(Tuple, width)
			for a := range tp {
				if rng.Intn(8) == 0 {
					tp[a] = shared
				} else {
					tp[a] = Const(string(rune('a' + rng.Intn(3))))
				}
			}
			in.Tuples = append(in.Tuples, tp)
		}
		tables := NewKeyTables(in)
		X := AttrSet(1 + rng.Intn(1<<width-1))
		kt := tables.Get(X)
		if tables.Len() != X.Len() {
			return false
		}
		ids := kt.IDs()
		seen := make([]bool, kt.Len())
		for u, tu := range in.Tuples {
			if ids[u] < 0 || ids[u] >= kt.Len() {
				return false
			}
			seen[ids[u]] = true
			for v, tv := range in.Tuples {
				if (ids[u] == ids[v]) != tu.AgreeOn(tv, X) {
					return false
				}
			}
		}
		for _, ok := range seen {
			if !ok {
				return false
			}
		}
		ov := kt.Overlay(0)
		codes := make([]int32, width)
		for u := range in.Tuples {
			for a := range codes {
				col, _ := in.Codes(a)
				codes[a] = col[u]
			}
			if id, ok := ov.Lookup(codes); !ok || id != ids[u] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
