package session_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/repair"
	"relatrust/internal/session"
)

// TestKeyTablesBoundedByLHSPrefixes runs 20 full-frontier sweeps through
// one engine and asserts it then holds exactly one key table per distinct
// LHS prefix of the materialized FD sets Σ′: repeated sweeps add none.
func TestKeyTablesBoundedByLHSPrefixes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := relation.NewInstance(relation.MustSchema("Blk", "A", "B", "C", "D", "E", "F"))
	for r := 0; r < 600; r++ {
		v := func(k int) string { return fmt.Sprintf("v%d", rng.Intn(k)) }
		if err := in.AppendConsts(fmt.Sprintf("b%d", r/4), v(2), v(2), v(3), v(3), v(3), v(3)); err != nil {
			t.Fatal(err)
		}
	}
	sigma := fd.MustParseSet(in.Schema, "Blk,A->B; C,D->E")
	eng := session.New(in)
	prefixes := map[relation.AttrSet]bool{}
	for sweep := 0; sweep < 20; sweep++ {
		s, err := repair.NewSession(in, sigma, repair.Config{Seed: 1, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		points := 0
		err = s.StreamRange(context.Background(), 0, s.DeltaPOriginal(), func(r *repair.Repair) error {
			points++
			for _, f := range r.Sigma {
				var p relation.AttrSet
				for _, a := range f.LHS.Attrs() {
					p = p.Add(a)
					prefixes[p] = true
				}
			}
			return nil
		})
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if points < 2 {
			t.Fatalf("sweep %d: %d frontier points, want several", sweep, points)
		}
		if got := eng.KeyTables().Len(); got != len(prefixes) {
			t.Fatalf("after sweep %d: engine holds %d key tables, want %d (one per LHS prefix of the materialized Σ′)", sweep, got, len(prefixes))
		}
	}
	t.Logf("%d key tables for %d LHS prefixes", eng.KeyTables().Len(), len(prefixes))
}
