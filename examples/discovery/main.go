// Discovery walks the full experimental loop of the paper's Section 8.1 on
// a small scale: discover FDs from clean data (the TANE-style substrate),
// perturb the discovered FD, and recover it with the relative-trust
// repair — showing that the τr=0 end of the spectrum restores removed LHS
// attributes.
//
// Run with: go run ./examples/discovery
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"relatrust"

	"relatrust/internal/fd"
	"relatrust/internal/gen"
	"relatrust/internal/relation"
)

func main() {
	// Clean data over 8 attributes in which attrs {0,1} determine attr 7.
	spec := gen.SubSpec(gen.CensusSpec(), 8)
	planted := fd.MustNew(relation.NewAttrSet(0, 1), 7)
	clean, err := gen.Generate(spec, fd.Set{planted}, 600, 21)
	if err != nil {
		log.Fatal(err)
	}

	// Step 1: discover minimal FDs from the clean instance.
	dv, err := relatrust.NewDiscoverer(clean, relatrust.DiscoverOptions{
		MaxLHS: 2,
		Attrs:  relatrust.NewAttrSet(0, 1, 2, 3, 7),
	})
	if err != nil {
		log.Fatal(err)
	}
	found, err := dv.Discover(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("discovered minimal FDs (LHS ≤ 2, over 5 of the attributes):")
	for _, f := range found {
		fmt.Printf("  %s\n", f.FD.Format(spec.Schema))
	}

	// Step 2: perturb the planted FD — drop one LHS attribute.
	p, err := gen.PerturbFDs(fd.Set{planted}, 0.5, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nperturbed FD: %s (removed: %s)\n",
		p.Sigma.Format(spec.Schema), p.Removed[0].Names(spec.Schema))
	fmt.Printf("clean data satisfies it? %v (it over-fires)\n\n", relatrust.Satisfies(clean, p.Sigma))

	// Step 3: at τ=0 (full trust in the data) the repair must extend the
	// weakened FD until it holds again — recovering the removed attribute
	// or an equivalent one. Infeasible budgets surface as the structured
	// ErrNoRepairInBudget.
	opt := relatrust.Options{Weights: relatrust.DistinctCountWeights(clean), Seed: 4}
	rp, err := relatrust.NewRepairer(clean, p.Sigma, opt)
	if err != nil {
		log.Fatal(err)
	}
	r, err := rp.RepairWithBudget(context.Background(), 0)
	if errors.Is(err, relatrust.ErrNoRepairInBudget) {
		log.Fatal("no zero-change repair found")
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repair at τ=0: %s\n", r.Sigma.Format(spec.Schema))
	fmt.Printf("cell changes: %d (must be 0)\n", r.Data.NumChanges())
	recovered := r.Sigma[0].LHS.Intersect(p.Removed[0])
	if !recovered.IsEmpty() {
		fmt.Printf("recovered removed attribute(s): %s\n", recovered.Names(spec.Schema))
	} else {
		fmt.Println("extended with an equivalent determinant instead of the removed attribute")
	}
}
