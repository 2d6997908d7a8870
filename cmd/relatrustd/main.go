// Command relatrustd serves the relative-trust repair spectrum over HTTP.
//
// Usage:
//
//	relatrustd -addr :8080 [-data-dir dir] [-dataset name=path.csv ...] [flags]
//
// Datasets can be preloaded from CSV files at startup with repeated
// -dataset flags, or registered at runtime via POST /v1/datasets. With
// -data-dir, registered datasets persist as columnar snapshots in that
// directory and are rehydrated on the next boot, so a crash or restart
// loses no uploads (corrupt snapshots are quarantined, never fatal); a
// preload whose name a persisted dataset already holds is skipped.
// Datasets uploaded with no rules can have their FDs mined server-side:
// POST /v1/discover streams each discovered FD (and, in
// discover_then_repair mode, the frontier sweep over the mined set),
// and POST /v1/jobs/discover runs a mine as a durable, resumable job.
// See package relatrust/internal/server for the endpoint, streaming,
// and cancellation model, and the README for curl examples and
// operations notes.
//
// SIGINT/SIGTERM shut the server down gracefully: the server first stops
// admitting new sweeps (503 shutting_down), in-flight streams get the
// -drain window to finish, then the listener closes. If the window
// expires the remaining connections are closed — cancelling their sweeps
// through the same plumbing a client disconnect uses — and the process
// exits non-zero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"relatrust"

	"relatrust/internal/server"
	"relatrust/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the daemon: flag parsing, preloading, and
// the serve-until-cancelled loop. It returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("relatrustd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		maxSweeps = fs.Int("max-sweeps", 2, "maximum concurrent repair sweeps per dataset; excess requests are shed with 429")
		maxTotal  = fs.Int("max-total-sweeps", 0, "maximum concurrent repair sweeps across all datasets (0 = 8)")
		workers   = fs.Int("workers", 0, "default search parallelism per sweep (0 = GOMAXPROCS; requests may override)")
		drain     = fs.Duration("drain", 10*time.Second, "graceful-shutdown window for in-flight requests")
		dataDir   = fs.String("data-dir", "", "directory for durable dataset snapshots (empty = in-memory registry only)")
		jobsDir   = fs.String("jobs-dir", "", "directory for durable job records and frontier checkpoints (empty = in-memory jobs only)")
		maxWarm   = fs.Int("max-warm-sessions", 0, "maximum datasets keeping a warm session; least recently swept is evicted (0 = unbounded)")
		maxJobRes = fs.Int64("max-job-results-bytes", 0, "maximum bytes of finished jobs' result logs before the oldest are evicted (0 = unbounded)")
		datasets  datasetFlags
	)
	fs.Var(&datasets, "dataset", "preload a dataset as name=path.csv (repeatable)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	opt := server.Options{
		MaxSweepsPerDataset: *maxSweeps,
		MaxConcurrentSweeps: *maxTotal,
		Workers:             *workers,
		MaxWarmSessions:     *maxWarm,
		MaxJobResultsBytes:  *maxJobRes,
	}
	if *dataDir != "" {
		st, err := store.Open(*dataDir, store.Options{})
		if err != nil {
			fmt.Fprintln(stderr, "relatrustd:", err)
			return 1
		}
		opt.Store = st
	}
	if *jobsDir != "" {
		js, err := store.OpenJobs(*jobsDir, store.Options{})
		if err != nil {
			fmt.Fprintln(stderr, "relatrustd:", err)
			return 1
		}
		opt.JobStore = js
	}
	srv := server.New(opt)
	if opt.Store != nil {
		n, err := srv.Rehydrate()
		if err != nil {
			fmt.Fprintln(stderr, "relatrustd:", err)
			return 1
		}
		fmt.Fprintf(stdout, "relatrustd: rehydrated %d dataset(s) from %s\n", n, *dataDir)
	}
	for _, d := range datasets {
		in, err := relatrust.ReadCSVFile(d.path)
		if err != nil {
			fmt.Fprintln(stderr, "relatrustd:", err)
			return 1
		}
		info, err := srv.Register(d.name, in)
		if errors.Is(err, server.ErrDatasetExists) {
			// The persisted copy wins: re-preloading over a rehydrated
			// dataset would discard whatever the store holds.
			fmt.Fprintf(stdout, "relatrustd: dataset %q already persisted; skipping preload\n", d.name)
			continue
		}
		if err != nil {
			fmt.Fprintln(stderr, "relatrustd:", err)
			return 1
		}
		fmt.Fprintf(stdout, "relatrustd: preloaded dataset %q (%d tuples × %d attributes)\n",
			info.Name, info.Tuples, len(info.Attributes))
	}
	if opt.JobStore != nil {
		// After Rehydrate and the preloads, so resumed jobs find their
		// datasets. Jobs whose records still say "running" continue from
		// their last checkpointed τ; finished ones become streamable again.
		n, err := srv.RecoverJobs()
		if err != nil {
			fmt.Fprintln(stderr, "relatrustd:", err)
			return 1
		}
		fmt.Fprintf(stdout, "relatrustd: resumed %d job(s) from %s\n", n, *jobsDir)
	}

	hs := &http.Server{
		Addr:    *addr,
		Handler: srv,
		// The streaming endpoint writes for as long as a sweep runs, so
		// no WriteTimeout; per-sweep deadlines come from timeout_ms.
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(stdout, "relatrustd: listening on %s\n", *addr)

	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "relatrustd:", err)
		return 1
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop admitting sweeps first, so the drain below only waits for work
	// that was already running when the signal arrived.
	srv.BeginShutdown()
	err := hs.Shutdown(shutdownCtx)
	if errors.Is(err, context.DeadlineExceeded) {
		// Sweeps still running after the drain window: Close() tears the
		// connections down, which cancels their request contexts through
		// the same plumbing a client disconnect uses. The sweeps then
		// unwind promptly; give them the grace of a short bounded wait so
		// the process does not exit under a mid-teardown race.
		_ = hs.Close()
		lateCtx, lateCancel := context.WithTimeout(context.Background(), time.Second)
		_ = srv.Drain(lateCtx)
		lateCancel()
		srv.Close()
		fmt.Fprintln(stderr, "relatrustd: shutdown: drain window expired, cancelled in-flight sweeps")
		return 1
	}
	if err != nil {
		srv.Close()
		fmt.Fprintln(stderr, "relatrustd: shutdown:", err)
		return 1
	}
	// The listener is closed and every request finished; drop the session
	// engines with the registry.
	srv.Close()
	fmt.Fprintln(stdout, "relatrustd: shut down")
	return 0
}

// datasetFlags collects repeated -dataset name=path.csv flags.
type datasetFlags []struct{ name, path string }

func (d *datasetFlags) String() string {
	parts := make([]string, len(*d))
	for i, e := range *d {
		parts[i] = e.name + "=" + e.path
	}
	return strings.Join(parts, ",")
}

func (d *datasetFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path.csv, got %q", v)
	}
	*d = append(*d, struct{ name, path string }{name, path})
	return nil
}
