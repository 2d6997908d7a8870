// Command discover mines functional dependencies from a CSV file, exactly
// or approximately — the workflow the paper's Section 1 motivates ("FDs
// that were automatically discovered from legacy data may be less
// reliable"), and the setup step of its experiments. The same miner is
// served over HTTP as POST /v1/discover by relatrustd.
//
// Usage:
//
//	discover -data people.csv -max-lhs 2
//	discover -data people.csv -max-lhs 2 -max-error 0.05
//	discover -data people.csv -attrs Surname,GivenName,Income
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"relatrust"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "discover:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("discover", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataPath = fs.String("data", "", "CSV file (header row defines the schema)")
		maxLHS   = fs.Int("max-lhs", 2, "largest LHS size to explore")
		maxErr   = fs.Float64("max-error", 0, "tolerated fraction of violating tuples (0 = exact FDs)")
		attrs    = fs.String("attrs", "", "comma-separated attribute subset to mine (default: all)")
		maxOut   = fs.Int("max", 0, "stop after this many FDs (0 = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataPath == "" {
		fs.Usage()
		return fmt.Errorf("-data is required")
	}
	in, err := relatrust.ReadCSVFile(*dataPath)
	if err != nil {
		return err
	}
	var restrict relatrust.AttrSet
	if *attrs != "" {
		restrict, err = in.Schema.ParseAttrs(*attrs)
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "%d tuples × %d attributes\n", in.N(), in.Schema.Width())

	dv, err := relatrust.NewDiscoverer(in, relatrust.DiscoverOptions{
		MaxLHS:     *maxLHS,
		MaxError:   *maxErr,
		MaxResults: *maxOut,
		Attrs:      restrict,
	})
	if err != nil {
		return err
	}
	found, err := dv.Discover(context.Background())
	if err != nil {
		return err
	}
	if *maxErr > 0 {
		fmt.Fprintf(stdout, "%d approximate FDs (error ≤ %.1f%%):\n", len(found), 100**maxErr)
		for _, f := range found {
			fmt.Fprintf(stdout, "  %-50s error %.2f%%\n", f.FD.Format(in.Schema), 100*f.Error)
		}
		return nil
	}
	fmt.Fprintf(stdout, "%d minimal exact FDs:\n", len(found))
	for _, f := range found {
		fmt.Fprintf(stdout, "  %s\n", f.FD.Format(in.Schema))
	}
	return nil
}
