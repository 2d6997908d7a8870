package relatrust_test

// Runnable godoc examples for the public API. Each output block is
// verified by go test, so the documentation cannot drift from behavior.

import (
	"context"
	"fmt"
	"strings"

	"relatrust"
)

const exampleCSV = `Dept,Manager,Floor
sales,pat,2
sales,sam,2
eng,lee,3
`

func ExampleRepairer_Frontier() {
	inst, _ := relatrust.ReadCSV(strings.NewReader(exampleCSV))
	sigma, _ := relatrust.ParseFDs(inst.Schema, "Dept->Manager")

	// The Repairer validates once and streams the Pareto frontier; pass a
	// cancellable context to make long sweeps interruptible.
	rp, _ := relatrust.NewRepairer(inst, sigma, relatrust.Options{
		Weights: relatrust.AttrCountWeights(),
		Seed:    1,
	})
	for r, err := range rp.Frontier(context.Background()) {
		if err != nil {
			fmt.Println("sweep failed:", err)
			return
		}
		fmt.Printf("τ≤%d: Σ'={%s}, %d cell change(s)\n",
			r.Tau, r.Sigma.Format(inst.Schema), r.Data.NumChanges())
	}
	// Output:
	// τ≤1: Σ'={Dept->Manager}, 1 cell change(s)
}

func ExampleRepairer_FrontierRange() {
	inst, _ := relatrust.ReadCSV(strings.NewReader(exampleCSV))
	sigma, _ := relatrust.ParseFDs(inst.Schema, "Dept->Manager")

	// Collect the frontier points with τ in [0, δP] into a slice.
	rp, _ := relatrust.NewRepairer(inst, sigma, relatrust.Options{
		Weights: relatrust.AttrCountWeights(),
		Seed:    1,
	})
	dp, _ := rp.MaxBudget(context.Background())
	var repairs []*relatrust.Repair
	for r, err := range rp.FrontierRange(context.Background(), 0, dp) {
		if err != nil {
			fmt.Println("sweep failed:", err)
			return
		}
		repairs = append(repairs, r)
	}
	for _, r := range repairs {
		fmt.Printf("τ≤%d: Σ'={%s}, %d cell change(s)\n",
			r.Tau, r.Sigma.Format(inst.Schema), r.Data.NumChanges())
	}
	// Output:
	// τ≤1: Σ'={Dept->Manager}, 1 cell change(s)
}

func ExampleRepairer_RepairWithBudget() {
	inst, _ := relatrust.ReadCSV(strings.NewReader(exampleCSV))
	sigma, _ := relatrust.ParseFDs(inst.Schema, "Dept->Manager")

	rp, _ := relatrust.NewRepairer(inst, sigma, relatrust.Options{Seed: 1})

	// τ=0 forbids data changes: with Floor available to append, the FD
	// itself must be relaxed — but the violating pair shares the floor,
	// so no relaxation exists and the answer is φ (nil, with
	// ErrNoRepairInBudget).
	r, _ := rp.RepairWithBudget(context.Background(), 0)
	fmt.Println("repair at τ=0:", r)

	// τ=1 allows one cell change and keeps the FD.
	r, _ = rp.RepairWithBudget(context.Background(), 1)
	fmt.Printf("repair at τ=1: %d change(s), Σ' unchanged: %v\n",
		r.Data.NumChanges(), r.Sigma.Format(inst.Schema) == "Dept->Manager")
	// Output:
	// repair at τ=0: <nil>
	// repair at τ=1: 1 change(s), Σ' unchanged: true
}

func ExampleSatisfies() {
	inst, _ := relatrust.ReadCSV(strings.NewReader(exampleCSV))
	sigma, _ := relatrust.ParseFDs(inst.Schema, "Dept->Manager; Dept->Floor")
	fmt.Println(relatrust.Satisfies(inst, sigma))
	fmt.Println(len(relatrust.Violations(inst, sigma, 0)))
	// Output:
	// false
	// 1
}

func ExampleRepairer_MaxBudget() {
	inst, _ := relatrust.ReadCSV(strings.NewReader(exampleCSV))
	sigma, _ := relatrust.ParseFDs(inst.Schema, "Dept->Manager")
	rp, _ := relatrust.NewRepairer(inst, sigma, relatrust.Options{})
	dp, _ := rp.MaxBudget(context.Background())
	fmt.Println(dp)
	// Output:
	// 1
}
