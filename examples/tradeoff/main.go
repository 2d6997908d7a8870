// Tradeoff sweeps the relative-trust parameter on a census-like workload
// with known ground truth and prints, per trust level, how close the
// suggested repair comes to undoing the injected damage — a miniature of
// the paper's Figure 7 experiment that you can read end to end.
//
// Rows print as the Repairer's Frontier stream delivers them.
//
// Run with: go run ./examples/tradeoff
package main

import (
	"context"
	"fmt"
	"log"

	"relatrust"

	"relatrust/internal/experiments"
	"relatrust/internal/fd"
	"relatrust/internal/gen"
)

func main() {
	// A 12-attribute census-like relation where the first six attributes
	// determine the seventh, 800 tuples. Then damage both sides of the
	// truth: remove half the FD's LHS and corrupt 3% of the tuples.
	spec := gen.SubSpec(gen.CensusSpec(), 12)
	sigma := fd.Set{gen.PaperFD(spec)}
	w, err := experiments.MakeWorkload(spec, sigma, 800, 0.5, 0.03, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clean FD:     %s\n", w.SigmaC.Format(spec.Schema))
	fmt.Printf("perturbed FD: %s  (%d LHS attributes removed)\n",
		w.SigmaD.Format(spec.Schema), w.Removed[0].Len())
	fmt.Printf("injected cell errors: %d\n\n", len(w.Cells))

	opt := relatrust.Options{Weights: relatrust.DistinctCountWeights(w.Dirty), Seed: 7}
	rp, err := relatrust.NewRepairer(w.Dirty, w.SigmaD, opt)
	if err != nil {
		log.Fatal(err)
	}
	dp, err := rp.MaxBudget(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-8s %-10s %-12s %-40s %s\n", "τ", "τr", "cell-chg", "Σ'", "quality vs ground truth")
	for r, err := range rp.Frontier(context.Background()) {
		if err != nil {
			log.Fatal(err)
		}
		q, err := w.Evaluate(r)
		if err != nil {
			log.Fatal(err)
		}
		taur := float64(r.DeltaP) / float64(dp)
		fmt.Printf("%-8d %-10.1f%% %-11d %-40s %s\n",
			r.Tau, 100*taur, r.Data.NumChanges(), r.Sigma.Format(spec.Schema), q)
	}
	fmt.Println()
	fmt.Println("Reading the table: with both kinds of damage present, neither")
	fmt.Println("extreme wins — the best combined score sits at an intermediate")
	fmt.Println("trust level, which is the paper's core claim.")
}
