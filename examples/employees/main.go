// Employees reproduces Example 1 (Figure 1) of the paper: a person table
// collected from several sources, with the asserted FD
//
//	Surname, GivenName → Income
//
// which is correct for the Western names but wrong for the Chinese names
// (surname + given name does not identify a person). The repairs across
// the trust spectrum show exactly the alternatives the paper discusses:
// fix the incomes, or append BirthDate (and then Phone) to the FD.
//
// Run with: go run ./examples/employees
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"relatrust"
)

const people = `GivenName,Surname,BirthDate,Gender,Phone,Income
Jack,White,5 Jan 1980,Male,923-234-4532,60k
Sam,McCarthy,19 Jul 1945,Male,989-321-4232,92k
Danielle,Blake,9 Dec 1970,Female,817-213-1211,120k
Matthew,Webb,23 Aug 1985,Male,246-481-0992,87k
Danielle,Blake,9 Dec 1970,Female,817-988-9211,100k
Hong,Li,27 Oct 1972,Female,591-977-1244,90k
Jian,Zhang,14 Apr 1990,Male,912-143-4981,55k
Ning,Wu,3 Nov 1982,Male,313-134-9241,90k
Hong,Li,8 Mar 1979,Female,498-214-5822,84k
Ning,Wu,8 Nov 1982,Male,323-456-3452,95k
`

func main() {
	inst, err := relatrust.ReadCSV(strings.NewReader(people))
	if err != nil {
		log.Fatal(err)
	}
	sigma, err := relatrust.ParseFDs(inst.Schema, "Surname,GivenName->Income")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("the person table of the paper's Figure 1:")
	fmt.Println(inst)
	fmt.Printf("asserted FD: %s\n", sigma.Format(inst.Schema))

	for _, v := range relatrust.Violations(inst, sigma, 0) {
		fmt.Printf("  violation: t%d vs t%d\n", v.T1+1, v.T2+1)
	}
	fmt.Println()

	// Weight appended attributes by their distinct-value counts, as the
	// paper's experiments do: BirthDate (8 values) is cheaper to append
	// than Phone (10 values, a key). Options.Progress makes the sweep
	// observable — useful when the table is millions of rows, invisible
	// here only because the example is tiny.
	opt := relatrust.Options{
		Weights: relatrust.DistinctCountWeights(inst),
		Seed:    3,
		Progress: func(ev relatrust.ProgressEvent) {
			if ev.Kind == relatrust.ProgressSweepFinished {
				fmt.Printf("(sweep visited %d search states)\n\n", ev.Visited)
			}
		},
	}
	rp, err := relatrust.NewRepairer(inst, sigma, opt)
	if err != nil {
		log.Fatal(err)
	}
	i := 0
	for r, err := range rp.Frontier(context.Background()) {
		if err != nil {
			log.Fatal(err)
		}
		i++
		fmt.Printf("--- suggestion %d (allow at most %d cell changes) ---\n", i, r.Tau)
		fmt.Printf("Σ' = %s\n", r.Sigma.Format(inst.Schema))
		if r.Data.NumChanges() == 0 {
			fmt.Println("data unchanged")
		}
		for _, c := range r.Data.Changed {
			fmt.Printf("  change %s: %s → %s\n", c.Format(inst.Schema),
				inst.Tuples[c.Tuple][c.Attr], r.Data.Value(c))
		}
		fmt.Println()
	}

	fmt.Println("Interpretation (matching Section 1 of the paper):")
	fmt.Println(" * trusting the FD fully means rewriting the incomes of the")
	fmt.Println("   duplicate-looking people (t5/t3, t9/t6, t10/t8);")
	fmt.Println(" * a middle level appends BirthDate and only reconciles the")
	fmt.Println("   true duplicates (Danielle Blake, Ning Wu);")
	fmt.Println(" * trusting the data fully appends Phone (or BirthDate+Phone),")
	fmt.Println("   keeping every tuple as-is.")
}
