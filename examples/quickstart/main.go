// Quickstart: repair a small inconsistent table against one FD, streaming
// every suggested repair across the relative-trust spectrum as the sweep
// produces it.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"relatrust"
)

const csv = `City,ZIP,State
Springfield,62701,IL
Springfield,62701,IL
Springfield,97477,OR
Shelbyville,46176,IN
Shelbyville,46176,TN
`

func main() {
	inst, err := relatrust.ReadCSV(strings.NewReader(csv))
	if err != nil {
		log.Fatal(err)
	}
	// The (wrong) belief: a city name determines its ZIP and state.
	sigma, err := relatrust.ParseFDs(inst.Schema, "City->ZIP; City->State")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("input:")
	fmt.Println(inst)
	fmt.Printf("Σ = %s\n", sigma.Format(inst.Schema))
	fmt.Printf("satisfied: %v\n\n", relatrust.Satisfies(inst, sigma))

	// A Repairer validates the pair once and owns the analysis state; the
	// Frontier iterator yields each Pareto point as its trust level
	// finishes (pass a cancellable context to make sweeps interruptible).
	rp, err := relatrust.NewRepairer(inst, sigma, relatrust.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	i := 0
	for r, err := range rp.Frontier(context.Background()) {
		if err != nil {
			log.Fatal(err)
		}
		i++
		fmt.Printf("--- repair %d: τ ≤ %d ---\n", i, r.Tau)
		fmt.Printf("Σ' = %s   (FD distance %.3g)\n", r.Sigma.Format(inst.Schema), r.FDCost)
		fmt.Printf("cell changes: %d\n", r.Data.NumChanges())
		for _, c := range r.Data.Changed {
			fmt.Printf("  %s: %s → %s\n", c.Format(inst.Schema),
				inst.Tuples[c.Tuple][c.Attr], r.Data.Value(c))
		}
		fmt.Println(r.Data.Instance())
	}
	fmt.Println("Each repair is one point on the trust spectrum: the first trusts")
	fmt.Println("the FDs (change data only), the last trusts the data (relax FDs).")
}
