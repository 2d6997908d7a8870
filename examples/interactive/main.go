// Interactive simulates a human-in-the-loop cleaning session built from
// three pieces of the library: sampled alternative repairs (the paper's
// reference [3] workflow), pinned cells as hard constraints, and a live
// dataset that applies each accepted edit as a mutation batch while the
// violation count is checked after every one.
//
// Run with: go run ./examples/interactive
package main

import (
	"context"
	"fmt"
	"log"
	"slices"

	"relatrust"

	"relatrust/internal/testkit"
)

func main() {
	in := testkit.Build([]string{"Employee", "Dept", "Manager"}, [][]string{
		{"ann", "sales", "pat"},
		{"bob", "sales", "sam"}, // disagrees with ann on sales' manager
		{"cat", "eng", "lee"},
		{"dan", "eng", "lee"},
		{"eve", "sales", "pat"},
	})
	sigma, err := relatrust.ParseFDs(in.Schema, "Dept->Manager")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(in)

	// One Repairer serves the whole interactive session: sampling and the
	// pinned repair below share its warm analysis state.
	ctx := context.Background()
	rp, err := relatrust.NewRepairer(in, sigma, relatrust.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// Step 1: how many ways can this be fixed? Sample the repair space.
	samples, err := rp.Sample(ctx, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("the violation has %d distinct minimal resolutions:\n", len(samples))
	for i, s := range samples {
		for _, c := range s.Changed {
			fmt.Printf("  option %d: set %s from %s to %s\n", i+1,
				c.Format(in.Schema), in.Tuples[c.Tuple][c.Attr], s.Value(c))
		}
	}

	// Step 2: the analyst knows bob's record was hand-checked — pin it.
	pinned := map[relatrust.CellRef]bool{}
	for a := 0; a < in.Schema.Width(); a++ {
		pinned[relatrust.CellRef{Tuple: 1, Attr: a}] = true
	}
	rep, err := rp.RepairDataOnly(ctx, pinned)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwith bob's tuple pinned as ground truth, the repair becomes:")
	for _, c := range rep.Changed {
		fmt.Printf("  %s: %s → %s\n", c.Format(in.Schema),
			in.Tuples[c.Tuple][c.Attr], rep.Value(c))
	}

	// Step 3: replay the accepted repair through a live dataset, one edit
	// per mutation batch, watching the violation count fall edit by edit.
	ld := relatrust.NewLiveDataset(in.Clone())
	pairs := func() int { return len(relatrust.Violations(ld.Rows(), sigma, 0)) }
	// set applies one cell edit as a batch and returns the change in
	// violating pairs.
	set := func(row, attr int, v relatrust.Value) int {
		before := pairs()
		t := slices.Clone(ld.Rows().Tuples[row])
		t[attr] = v
		if _, err := ld.Apply([]relatrust.RowOp{{Kind: relatrust.RowUpdate, Row: row, Tuple: t}}, nil); err != nil {
			log.Fatal(err)
		}
		return pairs() - before
	}
	fmt.Printf("\nviolating pairs before: %d\n", pairs())
	for i, c := range rep.Changed {
		d := set(c.Tuple, c.Attr, rep.Value(c))
		fmt.Printf("  edit %d: Δpairs = %+d\n", i+1, d)
	}
	fmt.Printf("violating pairs after: %d (satisfied = %v)\n", pairs(), relatrust.Satisfies(ld.Rows(), sigma))

	// Step 4: an analyst tries a further manual edit; the count shows at
	// once that it would re-break the FD, and the edit is rolled back.
	manager := in.Schema.Index("Manager")
	if d := set(4, manager, relatrust.Const("pat")); d > 0 {
		fmt.Printf("\nmanual edit of eve's manager would create %d new violating pair(s) — rejected\n", d)
		set(4, manager, rep.Value(relatrust.CellRef{Tuple: 4, Attr: manager}))
	}
	fmt.Printf("final state satisfied: %v\n", relatrust.Satisfies(ld.Rows(), sigma))
}
