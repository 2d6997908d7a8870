// Command relatrust repairs a CSV data set against a set of functional
// dependencies, suggesting modifications of the data and/or the FDs across
// the relative-trust spectrum.
//
// Usage:
//
//	relatrust -data people.csv -fds "Surname,GivenName->Income" [flags]
//
// With -tau N it prints the single repair for that cell-change budget
// (Algorithm 1 of the paper); without it, the full Pareto frontier of
// suggested repairs (Algorithm 6), each row printed as its trust level
// finishes. Ctrl-C cancels a running sweep cleanly: the partial frontier
// stays printed and the process exits non-zero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"relatrust"

	"relatrust/internal/cfd"
	"relatrust/internal/report"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command: it parses args, executes, and
// returns the process exit code (0 success, 1 runtime failure, 2 usage).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("relatrust", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataPath  = fs.String("data", "", "CSV file (header row defines the schema)")
		fdSpec    = fs.String("fds", "", "FDs, e.g. \"A,B->C; D->E\" (or @file to read them from a file)")
		tau       = fs.Int("tau", -1, "cell-change budget; -1 sweeps the whole trust spectrum")
		weighting = fs.String("weights", "distinct-count", "FD-modification weighting: attr-count | distinct-count | entropy | mdl")
		bestFirst = fs.Bool("best-first", false, "use best-first search instead of A* (CFD specs, those with a \"|\" pattern, always search best-first)")
		workers   = fs.Int("workers", 0, "parallel evaluation workers for the FD search (0 = GOMAXPROCS, 1 = inline on one goroutine; ignored for CFD specs)")
		seed      = fs.Int64("seed", 1, "seed for the randomized data-repair order")
		outPath   = fs.String("o", "", "write the repaired data of the last printed repair to this CSV file")
		showData  = fs.Bool("show-cells", false, "list every changed cell per repair")
		maxShown  = fs.Int("max-cells", 20, "changed cells to list per repair with -show-cells")
		progress  = fs.Bool("progress", false, "report sweep progress (τ levels, states visited, conflict components) on stderr")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *dataPath == "" || *fdSpec == "" {
		fs.Usage()
		fmt.Fprintln(stderr, "relatrust: -data and -fds are required")
		return 2
	}
	cfg := cliConfig{
		dataPath:  *dataPath,
		fdSpec:    *fdSpec,
		tau:       *tau,
		weighting: *weighting,
		bestFirst: *bestFirst,
		workers:   *workers,
		seed:      *seed,
		outPath:   *outPath,
		showData:  *showData,
		maxShown:  *maxShown,
		progress:  *progress,
	}
	if err := repairMain(ctx, cfg, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "relatrust:", err)
		return 1
	}
	return 0
}

// cliConfig carries the parsed flags.
type cliConfig struct {
	dataPath, fdSpec, weighting, outPath string
	tau, workers, maxShown               int
	seed                                 int64
	bestFirst                            bool
	showData, progress                   bool
}

func repairMain(ctx context.Context, cli cliConfig, stdout, stderr io.Writer) error {
	in, err := relatrust.ReadCSVFile(cli.dataPath)
	if err != nil {
		return err
	}
	spec := cli.fdSpec
	if strings.HasPrefix(spec, "@") {
		raw, err := os.ReadFile(spec[1:])
		if err != nil {
			return err
		}
		spec = string(raw)
	}
	sess := relatrust.NewSession(in)
	w, err := sess.Weights(cli.weighting)
	if err != nil {
		return err
	}
	if strings.Contains(spec, "|") {
		// Conditional FDs take the CFD engine (single-τ only).
		return runCFD(ctx, in, spec, cli.tau, w, cli.seed, stdout)
	}
	sigma, err := relatrust.ParseFDs(in.Schema, spec)
	if err != nil {
		return err
	}
	opt := relatrust.Options{
		Weights:   w,
		Session:   sess,
		BestFirst: cli.bestFirst,
		Seed:      cli.seed,
		Workers:   cli.workers,
	}
	if cli.progress {
		opt.Progress = progressReporter(stderr)
	}

	fmt.Fprintf(stdout, "%d tuples × %d attributes, Σ = %s\n", in.N(), in.Schema.Width(), sigma.Format(in.Schema))
	if relatrust.Satisfies(in, sigma) {
		fmt.Fprintln(stdout, "the data already satisfies every FD; nothing to repair")
		return nil
	}
	// The Repairer validates once and owns the warm session engine: the
	// MaxBudget call below and the repair sweep share one analysis.
	rp, err := relatrust.NewRepairer(in, sigma, opt)
	if err != nil {
		return err
	}
	dp, err := rp.MaxBudget(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "δP(Σ, I) = %d (cell-change budget for a pure data repair)\n\n", dp)

	var repairs []*relatrust.Repair
	sw := report.NewSpectrumWriter(stdout)
	if cli.tau >= 0 {
		r, err := rp.RepairWithBudget(ctx, cli.tau)
		if errors.Is(err, relatrust.ErrNoRepairInBudget) {
			fmt.Fprintf(stdout, "no FD relaxation fits τ=%d; raise the budget\n", cli.tau)
			return nil
		}
		if err != nil {
			return err
		}
		repairs = []*relatrust.Repair{r}
		if err := sw.Row(in, r); err != nil {
			return err
		}
	} else {
		// Stream the frontier: each row appears the moment its trust level
		// finishes, so slow sweeps show progress and a Ctrl-C keeps the
		// partial spectrum.
		for r, err := range rp.Frontier(ctx) {
			if err != nil {
				if errors.Is(err, context.Canceled) {
					fmt.Fprintf(stdout, "\nsweep cancelled after %d of the frontier's repairs\n", sw.Rows())
				}
				return err
			}
			if err := sw.Row(in, r); err != nil {
				return err
			}
			repairs = append(repairs, r)
		}
	}

	if cli.showData {
		for i, r := range repairs {
			fmt.Fprintf(stdout, "\nchanges of repair %d:\n", i+1)
			if err := report.Changes(stdout, in, r, report.Options{MaxCells: cli.maxShown}); err != nil {
				return err
			}
		}
	}

	if cli.outPath != "" && len(repairs) > 0 {
		last := repairs[len(repairs)-1]
		ground := last.Data.Instance().Ground("repaired_")
		if err := writeCSV(cli.outPath, ground); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote repaired data of repair %d to %s\n", len(repairs), cli.outPath)
	}
	return nil
}

// progressReporter renders Options.Progress events on w.
func progressReporter(w io.Writer) func(relatrust.ProgressEvent) {
	return func(ev relatrust.ProgressEvent) {
		// Sweeps over a live dataset answer for one pinned mutation
		// generation; name it so interleaved logs stay attributable.
		gen := ""
		if ev.Generation != 0 {
			gen = fmt.Sprintf(" [gen %d]", ev.Generation)
		}
		switch ev.Kind {
		case relatrust.ProgressSweepStarted:
			fmt.Fprintf(w, "progress: sweep started, τ=%d%s\n", ev.Tau, gen)
		case relatrust.ProgressTauFinished:
			fmt.Fprintf(w, "progress: τ=%d finished (%d states visited)\n", ev.Tau, ev.Visited)
		case relatrust.ProgressTauStarted:
			fmt.Fprintf(w, "progress: continuing under τ=%d\n", ev.Tau)
		case relatrust.ProgressSweepFinished:
			fmt.Fprintf(w, "progress: sweep finished (%d states visited, %d conflict components, largest %d tuples)\n",
				ev.Visited, ev.Components, ev.LargestComponent)
		}
	}
}

// runCFD repairs against conditional FDs (pattern syntax "A,B->C | a,_").
func runCFD(ctx context.Context, in *relatrust.Instance, spec string, tau int, w relatrust.WeightFunc, seed int64, stdout io.Writer) error {
	set, err := cfd.ParseSet(in.Schema, spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%d tuples, CFDs = %s\n", in.N(), set.Format(in.Schema))
	if set.SatisfiedBy(in) {
		fmt.Fprintln(stdout, "the data already satisfies every CFD")
		return nil
	}
	if tau < 0 {
		return fmt.Errorf("CFD mode needs an explicit -tau budget")
	}
	r, err := cfd.RepairWithBudget(ctx, in, set, tau, cfd.Config{Weights: w, Seed: seed})
	if err != nil {
		return err
	}
	if r == nil {
		fmt.Fprintf(stdout, "no CFD relaxation fits τ=%d; raise the budget\n", tau)
		return nil
	}
	fmt.Fprintf(stdout, "Σ' = %s\n", r.Set.Format(in.Schema))
	fmt.Fprintf(stdout, "cell changes: %d\n", r.NumChanges())
	for _, c := range r.Changed {
		fmt.Fprintf(stdout, "  %s: %s → %s\n", c.Format(in.Schema),
			in.Tuples[c.Tuple][c.Attr], r.Instance.Tuples[c.Tuple][c.Attr])
	}
	return nil
}

func writeCSV(path string, in *relatrust.Instance) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := relatrust.WriteCSV(f, in); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
