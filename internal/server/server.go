// Package server implements relatrustd: an HTTP service that serves the
// relative-trust repair spectrum over registered datasets.
//
// # Model
//
// Clients register CSV instances into a dataset registry (POST
// /v1/datasets); each dataset is a relatrust.LiveDataset, so the conflict
// analysis stays warm — and incrementally maintained across row mutations
// — for the dataset's whole lifetime, and every repair request over a hot
// dataset forks the cached state instead of re-scanning the data. Repair
// requests name a dataset plus an FD set and run through the public
// relatrust.Repairer facade:
//
//	POST  /v1/repair               stream the Pareto frontier (NDJSON, or SSE via Accept)
//	POST  /v1/discover             mine FDs from the data and stream each (mode
//	                               discover_then_repair appends a frontier sweep over the mined Σ)
//	POST  /v1/repair/budget        the single repair for one cell-change budget τ
//	POST  /v1/sample               k sampled minimal data-only repairs
//	POST  /v1/violations           violating tuple pairs for an FD set
//	PATCH /v1/datasets/{name}/rows apply a row-mutation batch (insert/update/delete)
//	GET   /healthz                 liveness
//	GET   /statz                   registry and sweep statistics
//	GET   /metrics                 the same counters in Prometheus text format
//
// With Options.Store set the registry is durable: registration writes a
// columnar snapshot through to disk, deletion removes it, and Rehydrate
// reloads every persisted dataset on boot (corrupt snapshots are
// quarantined by the store, never fatal). Row mutations write through
// before they commit, so a restart never resurrects pre-mutation rows.
//
// Request bodies are decoded strictly: an unknown field is a 400. The
// retired engine knobs no_partition_cache and no_decomposition therefore
// stay in RepairRequest and DiscoverRequest for one release, accepted and
// ignored — the search has a single cover path, so they cannot change a
// response — and job ids never hashed them.
//
// # Mutations and generations
//
// Each dataset carries a mutation generation, advanced by every committed
// PATCH batch. Sweeps pin the (instance, session, generation) snapshot
// current when they start and finish against it even if mutations land
// mid-sweep — streamed rows always describe one consistent generation,
// stamped on progress events and /statz. Jobs address their generation:
// mutating a dataset re-addresses subsequent submissions (a resubmitted
// spec sweeps afresh) and fails recovered jobs whose generation no longer
// matches (dataset_mutated) instead of resuming them against new rows.
//
// # Streaming
//
// /v1/repair writes one frontier row the moment its trust level finishes:
// the handler ranges over Repairer.Frontier and flushes each NDJSON line
// (or SSE "repair" event) as it is yielded, so a slow sweep shows
// progress and a client can stop reading once it has seen enough of the
// spectrum. An NDJSON stream carries data rows only; an error mid-sweep is
// delivered in-band as a final {"error": ...} line (SSE: an "error"
// event; a successful SSE stream ends with a "done" event). Rows encode
// report.Row — byte-identical to the rows an in-process caller would build
// from the same Frontier sequence.
//
// # Cancellation
//
// Every sweep runs under the request's context: a client disconnect or an
// explicit timeout_ms deadline cancels the FD-modification search through
// the facade's context plumbing, which drains the parallel workers and
// returns the forked analysis to the shared session before the handler
// exits. The shared session is therefore unaffected by abandoned requests
// — the next request over the dataset reuses it as if the cancel never
// happened.
//
// # Concurrency and load shedding
//
// Requests over distinct datasets are independent. Within one dataset a
// counting semaphore (Options.MaxSweepsPerDataset) bounds the number of
// concurrently running sweeps, and Options.MaxConcurrentSweeps bounds
// them globally; a request that finds either saturated is shed
// immediately — 429 with a Retry-After header — rather than queued, so
// overload degrades into fast, honest rejections instead of a convoy.
// Acquired analyses are per-request forks, so concurrent sweeps under the
// bound are safe; the registry itself is guarded by a read-write mutex.
//
// # Panic isolation
//
// A panic anywhere in a request — handler, sweep, or a search evaluation
// worker (contained in the search layer and surfaced as a
// relatrust.PanicError) — fails that request only: before the response
// header is committed it becomes a structured 500 internal_panic; after,
// an in-band error frame. The stack goes to the log, the poisoned forked
// state is dropped rather than recycled, and the dataset's shared session
// keeps serving.
//
// # Shutdown
//
// BeginShutdown stops admitting sweeps (503 shutting_down), Drain waits
// for the in-flight ones under a deadline, Close drops the registry;
// Shutdown composes the three for the daemon's signal handler.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"relatrust"

	"relatrust/internal/jobs"
	"relatrust/internal/store"
)

// Options tunes a Server.
type Options struct {
	// MaxSweepsPerDataset bounds concurrently running sweeps (frontier,
	// budget, sample) per dataset; further requests wait. 0 selects 2.
	MaxSweepsPerDataset int
	// MaxUploadBytes caps the request body of dataset registration.
	// 0 selects 32 MiB.
	MaxUploadBytes int64
	// Workers is the default search parallelism for requests that do not
	// set workers themselves. 0 selects the facade default (GOMAXPROCS).
	Workers int
	// Observe, when non-nil, receives every sweep's progress events
	// (relatrust.Options.Progress) tagged with the dataset name. Callbacks
	// run synchronously on the sweeping goroutine — keep them fast. Used
	// for logging, metrics, and by the test harness to pause a sweep at a
	// known point.
	Observe func(dataset string, ev relatrust.ProgressEvent)
	// ObserveDiscovery, when non-nil, receives every discovery run's
	// lattice-level progress (relatrust.DiscoverOptions.Progress) tagged
	// with the dataset name. Same contract as Observe: synchronous on the
	// mining goroutine, keep it fast.
	ObserveDiscovery func(dataset string, level, sets int)
	// MaxConcurrentSweeps caps sweeps running across ALL datasets; a
	// request that finds the cap (or its dataset's semaphore) saturated is
	// shed with 429 + Retry-After instead of queueing. 0 selects 8.
	MaxConcurrentSweeps int
	// Store, when non-nil, makes the registry durable: Rehydrate loads
	// every persisted dataset on boot, registration writes through, and
	// deletion removes the snapshot.
	Store *store.Store
	// JobStore, when non-nil, makes the job tier durable: POST /v1/jobs
	// records and frontier checkpoints persist, and RecoverJobs resumes
	// interrupted sweeps on boot. nil keeps jobs in memory only (they
	// still coalesce and stream, but a restart loses them).
	JobStore *store.JobStore
	// MaxJobResultsBytes bounds the result-log bytes held by terminal
	// jobs; beyond it the oldest terminal jobs are evicted (counted by
	// job_results_evicted_bytes). 0 = unbounded.
	MaxJobResultsBytes int64
	// MaxWarmSessions bounds how many datasets keep a warm session at
	// once; beyond it the least recently swept session is dropped (counted
	// by sessions_evicted) and rebuilt on the dataset's next sweep.
	// 0 = unbounded.
	MaxWarmSessions int
	// Logger receives panic stacks and storage trouble. nil selects
	// slog.Default().
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.MaxSweepsPerDataset <= 0 {
		o.MaxSweepsPerDataset = 2
	}
	if o.MaxUploadBytes <= 0 {
		o.MaxUploadBytes = 32 << 20
	}
	if o.MaxConcurrentSweeps <= 0 {
		o.MaxConcurrentSweeps = 8
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// Server is the relatrustd HTTP handler: a dataset registry plus the
// repair endpoints. Create one with New and mount it (it implements
// http.Handler).
type Server struct {
	opt   Options
	mux   *http.ServeMux
	start time.Time
	now   func() time.Time // clock hook; tests freeze it for golden output
	log   *slog.Logger

	// inflight is the global sweep cap (load shedding, with the
	// per-dataset semaphores); panics counts recovered handler and stream
	// panics.
	inflight chan struct{}
	panics   atomic.Int64

	// sweeps tracks running sweeps for Drain; draining flips under
	// sweepMu so no sweep starts after a drain began waiting.
	sweepMu  sync.Mutex
	draining bool
	sweeps   sync.WaitGroup

	// jobs owns the durable job tier (POST /v1/jobs).
	jobs *jobs.Manager

	// warmMu guards the warm-session budget (warmCount, warmClock); the
	// per-dataset sess pointer itself lives under the dataset's mu. Lock
	// order: warmMu, then mu, then a dataset's mu.
	warmMu          sync.Mutex
	warmCount       int
	warmClock       int64
	sessionsEvicted atomic.Int64

	mu       sync.RWMutex
	datasets map[string]*dataset
}

// ErrDatasetExists reports a name collision from Register, matched with
// errors.Is (the daemon uses it to skip preloads already rehydrated from
// the store).
var ErrDatasetExists = errors.New("server: dataset already registered")

// ErrShuttingDown reports a sweep refused because shutdown began.
var ErrShuttingDown = errors.New("server: shutting down")

// dataset is one registered instance with its live mutation tier and
// serving statistics.
type dataset struct {
	name string
	// live owns the rows, the mutation generation, and the incrementally
	// maintained repair state; all reads go through its snapshots.
	live *relatrust.LiveDataset
	// sem bounds concurrent sweeps; acquire before any repair work.
	sem chan struct{}
	// mutMu serializes PATCH batches so the write-through can persist the
	// post-batch generation before the batch commits (sweeps never take
	// it — they only snapshot).
	mutMu sync.Mutex

	mu sync.Mutex
	// warm records whether the dataset's live tier currently counts
	// against the warm-session budget; under Options.MaxWarmSessions the
	// least recently swept dataset is evicted (sessUsed is the LRU stamp)
	// back to cold state. In-flight sweeps keep their own snapshot
	// references, so eviction never breaks them.
	warm            bool
	sessUsed        int64
	sweepsStarted   int64
	sweepsFinished  int64
	sweepsCancelled int64
	sweepsFailed    int64
	sweepsShed      int64
	rowsStreamed    int64
	// last* component fields describe the conflict-hypergraph
	// decomposition reported by the most recently finished sweep.
	lastComponents         int
	lastLargestComponent   int
	lastComponentsParallel int64
}

// New returns a Server with an empty registry. With Options.Store set,
// call Rehydrate next to load the persisted datasets.
func New(opt Options) *Server {
	opt = opt.withDefaults()
	s := &Server{
		opt:      opt,
		start:    time.Now(),
		now:      time.Now,
		log:      opt.Logger,
		inflight: make(chan struct{}, opt.MaxConcurrentSweeps),
		datasets: make(map[string]*dataset),
	}
	s.jobs = jobs.New(jobs.Options{
		Store:          opt.JobStore,
		MaxResultBytes: opt.MaxJobResultsBytes,
		Logger:         opt.Logger,
		ErrorCode: func(err error) string {
			_, body := mapError(err, nil)
			return body.Error.Code
		},
	})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statz", s.handleStatz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/datasets", s.handleRegister)
	mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	mux.HandleFunc("GET /v1/datasets/{name}", s.handleGetDataset)
	mux.HandleFunc("DELETE /v1/datasets/{name}", s.handleDeleteDataset)
	mux.HandleFunc("PATCH /v1/datasets/{name}/rows", s.handleMutateRows)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("POST /v1/jobs/discover", s.handleSubmitDiscoverJob)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleDeleteJob)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	mux.HandleFunc("POST /v1/repair", s.handleRepair)
	mux.HandleFunc("POST /v1/discover", s.handleDiscover)
	mux.HandleFunc("POST /v1/repair/budget", s.handleBudget)
	mux.HandleFunc("POST /v1/sample", s.handleSample)
	mux.HandleFunc("POST /v1/violations", s.handleViolations)
	s.mux = mux
	return s
}

// ServeHTTP dispatches to the registered routes under the panic-recovery
// middleware: a handler panic that escapes (the streaming path recovers
// its own first — see streamFrontier) is logged with its stack and, when
// the response header is not yet committed, answered with a structured
// 500. The process and every other connection stay up either way.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rw := &recordingWriter{ResponseWriter: w}
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler { // deliberate abort, not a fault
			panic(rec)
		}
		s.panics.Add(1)
		s.log.Error("server: panic in handler",
			"method", r.Method, "path", r.URL.Path,
			"panic", rec, "stack", string(debug.Stack()))
		if !rw.committed {
			writeErrorCode(rw, http.StatusInternalServerError, codeInternalPanic,
				"internal panic while handling the request")
		}
	}()
	s.mux.ServeHTTP(rw, r)
}

// recordingWriter remembers whether the response header was committed, so
// the recovery middleware knows whether a structured 500 can still be
// sent. Unwrap keeps http.ResponseController (flushing) working through
// the wrapper.
type recordingWriter struct {
	http.ResponseWriter
	committed bool
}

func (rw *recordingWriter) WriteHeader(code int) {
	rw.committed = true
	rw.ResponseWriter.WriteHeader(code)
}

func (rw *recordingWriter) Write(b []byte) (int, error) {
	rw.committed = true
	return rw.ResponseWriter.Write(b)
}

func (rw *recordingWriter) Unwrap() http.ResponseWriter { return rw.ResponseWriter }

// DatasetInfo is the wire description of a registered dataset.
type DatasetInfo struct {
	Name       string   `json:"name"`
	Tuples     int      `json:"tuples"`
	Attributes []string `json:"attributes"`
}

func (d *dataset) info() DatasetInfo {
	in := d.live.Rows()
	return DatasetInfo{
		Name:       d.name,
		Tuples:     in.N(),
		Attributes: in.Schema.Names(),
	}
}

// Register adds an instance under the name programmatically (daemon
// preloading and tests; HTTP clients use POST /v1/datasets), writing
// through to the durable store when one is attached: the dataset is
// registered only if its snapshot also landed on disk. The instance must
// not be mutated afterwards — the dataset's shared session aliases it for
// its whole lifetime. A name collision reports ErrDatasetExists.
func (s *Server) Register(name string, in *relatrust.Instance) (DatasetInfo, error) {
	info, err := s.register(name, in, 0)
	if err != nil {
		return DatasetInfo{}, err
	}
	if s.opt.Store != nil {
		if err := s.opt.Store.Save(name, in); err != nil {
			// Roll the in-memory reservation back: a dataset the store
			// could not persist would silently vanish on restart.
			s.mu.Lock()
			delete(s.datasets, name)
			s.mu.Unlock()
			return DatasetInfo{}, fmt.Errorf("server: persisting dataset %q: %w", name, err)
		}
	}
	return info, nil
}

// register inserts into the in-memory registry only (the rehydration path,
// and the first half of Register). generation seeds the live tier: fresh
// registrations start at 0, rehydration passes the persisted value so job
// generation checks survive restarts.
func (s *Server) register(name string, in *relatrust.Instance, generation int64) (DatasetInfo, error) {
	if err := validateDatasetName(name); err != nil {
		return DatasetInfo{}, err
	}
	d := &dataset{
		name: name,
		live: relatrust.NewLiveDatasetAt(in, generation),
		sem:  make(chan struct{}, s.opt.MaxSweepsPerDataset),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.datasets[name]; ok {
		return DatasetInfo{}, fmt.Errorf("%w: %q", ErrDatasetExists, name)
	}
	s.datasets[name] = d
	return d.info(), nil
}

// Rehydrate loads every dataset persisted in the attached store into the
// registry (no-op without a store) and returns how many it registered.
// Corrupt snapshots were already quarantined by the store; a name that is
// somehow both preloaded and persisted keeps the in-memory one, with a
// log line.
func (s *Server) Rehydrate() (int, error) {
	if s.opt.Store == nil {
		return 0, nil
	}
	loaded, err := s.opt.Store.LoadAll()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, d := range loaded {
		// The generation sidecar is written before the snapshot on every
		// mutation, so the loaded pair is never older than its label; a
		// missing sidecar reads as generation 0 (never mutated).
		gen, err := s.opt.Store.LoadGeneration(d.Name)
		if err != nil {
			s.log.Warn("server: unreadable generation sidecar; treating dataset as fresh",
				"name", d.Name, "err", err)
			gen = 0
		}
		if _, err := s.register(d.Name, d.Instance, gen); err != nil {
			s.log.Warn("server: skipping persisted dataset", "name", d.Name, "err", err)
			continue
		}
		n++
	}
	return n, nil
}

func validateDatasetName(name string) error {
	// The constraints are the union of the registry's and the snapshot
	// store's (names become file stems there), so a dataset never
	// registers in memory but fails to persist on a name technicality.
	if name == "" || len(name) > 128 || strings.ContainsAny(name, "/\\\x00 \t\n") ||
		strings.HasPrefix(name, ".") || strings.Contains(name, ".snap") ||
		strings.Contains(name, ".gen") {
		return fmt.Errorf("server: invalid dataset name %q (non-empty, ≤128 chars, no spaces, slashes, leading dots, .snap, or .gen)", name)
	}
	return nil
}

// lookup returns the dataset, or nil if unregistered.
func (s *Server) lookup(name string) *dataset {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.datasets[name]
}

// registerRequest is the body of POST /v1/datasets: the CSV text is parsed
// header-first, exactly like relatrust.ReadCSV.
type registerRequest struct {
	Name string `json:"name"`
	CSV  string `json:"csv"`
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.opt.MaxUploadBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req registerRequest
	if err := dec.Decode(&req); err != nil {
		writeErrorCode(w, http.StatusBadRequest, codeBadRequest, "decoding register request: %v", err)
		return
	}
	if dec.More() {
		writeErrorCode(w, http.StatusBadRequest, codeBadRequest, "unexpected data after the register object")
		return
	}
	if err := validateDatasetName(req.Name); err != nil {
		writeErrorCode(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	in, err := relatrust.ReadCSV(strings.NewReader(req.CSV))
	if err != nil {
		writeErrorCode(w, http.StatusBadRequest, codeBadCSV, "parsing CSV: %v", err)
		return
	}
	info, err := s.Register(req.Name, in)
	switch {
	case errors.Is(err, ErrDatasetExists):
		writeErrorCode(w, http.StatusConflict, codeDatasetExists, "%v", err)
		return
	case err != nil:
		// The write-through to the snapshot store failed; nothing was
		// registered (see Register's rollback).
		writeErrorCode(w, http.StatusInternalServerError, codeStorage, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleListDatasets(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	infos := make([]DatasetInfo, 0, len(s.datasets))
	for _, d := range s.datasets {
		infos = append(infos, d.info())
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, struct {
		Datasets []DatasetInfo `json:"datasets"`
	}{infos})
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	d := s.lookup(r.PathValue("name"))
	if d == nil {
		writeErrorCode(w, http.StatusNotFound, codeUnknownDataset, "dataset %q is not registered", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, d.info())
}

func (s *Server) handleDeleteDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.warmMu.Lock()
	s.mu.Lock()
	d, ok := s.datasets[name]
	delete(s.datasets, name)
	if ok {
		d.mu.Lock()
		if d.warm {
			s.warmCount--
		}
		d.mu.Unlock()
	}
	s.mu.Unlock()
	s.warmMu.Unlock()
	if !ok {
		writeErrorCode(w, http.StatusNotFound, codeUnknownDataset, "dataset %q is not registered", name)
		return
	}
	if s.opt.Store != nil {
		// The registry entry is gone either way; a snapshot the store
		// could not remove resurfaces on the next boot, which beats
		// resurrecting the handler's response with an error.
		if err := s.opt.Store.Delete(name); err != nil {
			s.log.Error("server: deleting persisted dataset", "name", name, "err", err)
		}
	}
	// Running jobs over the dataset are cancelled (their followers get a
	// structured dataset_deleted error and the slots free as the sweeps
	// unwind); terminal jobs over it are dropped with their result logs.
	s.jobs.CancelDataset(name)
	// In-flight request sweeps over the dataset keep their references and
	// finish normally; the session is garbage once they do.
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		OK bool `json:"ok"`
	}{true})
}

// beginSweepSlot is the admission decision of the sweeping handlers:
// nil on success (endSweepSlot must follow), ErrShuttingDown once
// BeginShutdown ran, errOverloaded when the global in-flight cap or the
// dataset's semaphore is saturated — the request is shed, never queued.
func (s *Server) beginSweepSlot(d *dataset) error {
	s.sweepMu.Lock()
	if s.draining {
		s.sweepMu.Unlock()
		return ErrShuttingDown
	}
	s.sweeps.Add(1)
	s.sweepMu.Unlock()
	select {
	case s.inflight <- struct{}{}:
	default:
		s.sweeps.Done()
		return errOverloaded
	}
	select {
	case d.sem <- struct{}{}:
	default:
		<-s.inflight
		s.sweeps.Done()
		return errOverloaded
	}
	return nil
}

func (s *Server) endSweepSlot(d *dataset) {
	<-d.sem
	<-s.inflight
	s.sweeps.Done()
}

// errOverloaded marks a shed sweep internally; the wire sees 429
// overloaded with a Retry-After.
var errOverloaded = errors.New("server: sweep capacity saturated")

// snapshotFor pins the dataset's current (instance, session, generation)
// triple for one sweep, marking the dataset warm and most-recently-used.
// The triple is immutable: the sweep finishes against it no matter how
// many mutation batches commit behind it. When warming pushes the count
// over Options.MaxWarmSessions, the least recently used other dataset is
// evicted: it re-pays the conflict analysis on its next sweep, while
// sweeps already holding its snapshots keep their references and finish
// unaffected.
func (s *Server) snapshotFor(d *dataset) (*relatrust.Instance, *relatrust.Session, int64) {
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	d.mu.Lock()
	created := !d.warm
	d.warm = true
	s.warmClock++
	d.sessUsed = s.warmClock
	d.mu.Unlock()
	in, sess, gen := d.live.Snapshot()
	if created {
		s.warmCount++
		s.evictWarmLocked(d)
	}
	return in, sess, gen
}

// evictWarmLocked enforces MaxWarmSessions (warmMu held), never evicting
// the dataset just touched.
func (s *Server) evictWarmLocked(keep *dataset) {
	max := s.opt.MaxWarmSessions
	if max <= 0 {
		return
	}
	for s.warmCount > max {
		var victim *dataset
		var victimUsed int64
		s.mu.RLock()
		for _, d := range s.datasets {
			if d == keep {
				continue
			}
			d.mu.Lock()
			if d.warm && (victim == nil || d.sessUsed < victimUsed) {
				victim, victimUsed = d, d.sessUsed
			}
			d.mu.Unlock()
		}
		s.mu.RUnlock()
		if victim == nil {
			return
		}
		victim.mu.Lock()
		victim.warm = false
		victim.mu.Unlock()
		victim.live.Evict()
		s.warmCount--
		s.sessionsEvicted.Add(1)
	}
}

// BeginShutdown stops admitting sweeps: every subsequent repair-family
// request is answered 503 shutting_down. Registration and read endpoints
// keep working so health checks and drain monitoring stay truthful.
// Running jobs are interrupted — not failed: their durable records keep
// saying "running" and the next boot resumes them from their checkpoints —
// so the Drain that follows is not held hostage by long sweeps.
func (s *Server) BeginShutdown() {
	s.sweepMu.Lock()
	s.draining = true
	s.sweepMu.Unlock()
	s.jobs.Shutdown()
}

// Drain blocks until every in-flight sweep finished, or ctx expires
// (returning its cause). Call BeginShutdown first, or new sweeps keep
// extending the wait.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.sweeps.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// Close empties the registry, dropping every shared session. Sessions
// hold no OS resources — sweeps still running keep their forks alive and
// everything is garbage once they return.
func (s *Server) Close() {
	s.mu.Lock()
	s.datasets = make(map[string]*dataset)
	s.mu.Unlock()
}

// Shutdown is the graceful sequence the daemon runs: stop admitting,
// drain in-flight sweeps within ctx, then drop the registry. The drain
// error (deadline exceeded with streams still running) is returned after
// Close so callers can report a dirty shutdown.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginShutdown()
	err := s.Drain(ctx)
	s.Close()
	return err
}

// DatasetStatz is the per-dataset block of GET /statz.
type DatasetStatz struct {
	DatasetInfo
	// ActiveSweeps is the number of sweeps currently holding the
	// dataset's semaphore.
	ActiveSweeps  int   `json:"active_sweeps"`
	SweepsStarted int64 `json:"sweeps_started"`
	// SweepsFinished + SweepsCancelled (disconnects, deadlines) +
	// SweepsFailed (MaxVisited, internal faults) accounts for every
	// sweep that is no longer active.
	SweepsFinished  int64 `json:"sweeps_finished"`
	SweepsCancelled int64 `json:"sweeps_cancelled"`
	SweepsFailed    int64 `json:"sweeps_failed"`
	// SweepsShed counts requests answered 429 because the dataset's
	// semaphore or the global in-flight cap was saturated.
	SweepsShed   int64 `json:"sweeps_shed"`
	RowsStreamed int64 `json:"rows_streamed"`
	// Components and LargestComponent describe the conflict-hypergraph
	// decomposition of the most recently finished sweep (component count
	// and biggest component's tuple count); ComponentsParallel counts
	// the per-component cover evaluations dispatched across the worker
	// pool by that sweep's component evaluator, summed over every sweep
	// sharing it (it restarts when a new analysis is built). All zero
	// until a sweep finishes.
	Components         int   `json:"components"`
	LargestComponent   int   `json:"largest_component"`
	ComponentsParallel int64 `json:"components_parallel"`
	// SessionAcquires/SessionBuilds are the shared session's counters:
	// analyses handed out vs built from scratch. A hot dataset shows
	// acquires far above builds.
	SessionAcquires int64 `json:"session_acquires"`
	SessionBuilds   int64 `json:"session_builds"`
	// Generation is the dataset's current mutation generation;
	// MutationsApplied and ComponentsDirtied are the live tier's lifetime
	// counters (ops that changed rows, and conflict components whose
	// memoized cover state a batch invalidated).
	Generation        int64 `json:"generation"`
	MutationsApplied  int64 `json:"mutations_applied"`
	ComponentsDirtied int64 `json:"components_dirtied"`
}

// StoreStatz is the snapshot-store block of GET /statz (present only when
// a store is attached).
type StoreStatz struct {
	Saves       int64 `json:"saves"`
	Loads       int64 `json:"loads"`
	Quarantined int64 `json:"quarantined"`
}

// JobsStatz is the job-tier block of GET /statz.
type JobsStatz struct {
	Active    int `json:"active"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	// Resumed counts sweeps restarted from a checkpoint (boot recovery or
	// resubmission of a failed/cancelled job); Coalesced counts
	// submissions answered by an already-known job without a new sweep.
	Resumed   int64 `json:"resumed"`
	Coalesced int64 `json:"coalesced"`
	// CheckpointBytes counts bytes appended to durable result logs;
	// ResultsEvictedBytes counts bytes dropped by MaxJobResultsBytes
	// eviction.
	CheckpointBytes     int64 `json:"checkpoint_bytes"`
	ResultsEvictedBytes int64 `json:"results_evicted_bytes"`
}

// Statz is the body of GET /statz.
type Statz struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Sessions      int     `json:"sessions"`
	// WarmSessions counts datasets currently holding a built session;
	// SessionsEvicted counts sessions dropped by MaxWarmSessions.
	WarmSessions    int   `json:"warm_sessions"`
	SessionsEvicted int64 `json:"sessions_evicted"`
	// PanicsRecovered counts panics contained by the recovery layers —
	// each one failed a single request, not the process.
	PanicsRecovered int64          `json:"panics_recovered"`
	Jobs            JobsStatz      `json:"jobs"`
	Store           *StoreStatz    `json:"store,omitempty"`
	Datasets        []DatasetStatz `json:"datasets"`
}

// statzBody gathers the full statistics snapshot (shared by /statz and
// /metrics).
func (s *Server) statzBody() Statz {
	s.mu.RLock()
	stats := make([]DatasetStatz, 0, len(s.datasets))
	for _, d := range s.datasets {
		stats = append(stats, d.statz())
	}
	s.mu.RUnlock()
	sort.Slice(stats, func(i, j int) bool { return stats[i].Name < stats[j].Name })
	s.warmMu.Lock()
	warm := s.warmCount
	s.warmMu.Unlock()
	jst := s.jobs.Stats()
	body := Statz{
		UptimeSeconds:   s.now().Sub(s.start).Seconds(),
		Sessions:        len(stats),
		WarmSessions:    warm,
		SessionsEvicted: s.sessionsEvicted.Load(),
		PanicsRecovered: s.panics.Load(),
		Jobs: JobsStatz{
			Active:              jst.Active,
			Completed:           jst.Completed,
			Failed:              jst.Failed,
			Cancelled:           jst.Cancelled,
			Resumed:             jst.Resumed,
			Coalesced:           jst.Coalesced,
			CheckpointBytes:     jst.CheckpointBytes,
			ResultsEvictedBytes: jst.ResultsEvictedBytes,
		},
		Datasets: stats,
	}
	if s.opt.Store != nil {
		st := s.opt.Store.Stats()
		body.Store = &StoreStatz{Saves: st.Saves, Loads: st.Loads, Quarantined: st.Quarantined}
	}
	return body
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.statzBody())
}

func (d *dataset) statz() DatasetStatz {
	d.mu.Lock()
	warm := d.warm
	st := DatasetStatz{
		DatasetInfo:        d.info(),
		ActiveSweeps:       len(d.sem),
		SweepsStarted:      d.sweepsStarted,
		SweepsFinished:     d.sweepsFinished,
		SweepsCancelled:    d.sweepsCancelled,
		SweepsFailed:       d.sweepsFailed,
		SweepsShed:         d.sweepsShed,
		RowsStreamed:       d.rowsStreamed,
		Components:         d.lastComponents,
		LargestComponent:   d.lastLargestComponent,
		ComponentsParallel: d.lastComponentsParallel,
	}
	d.mu.Unlock()
	lst := d.live.Stats()
	st.Generation = d.live.Generation()
	st.MutationsApplied = lst.MutationsApplied
	st.ComponentsDirtied = lst.ComponentsDirtied
	// A cold dataset (no sweep yet, or its warm state was evicted) reports
	// zero session counters; the lifetime eviction count lives at the top
	// level.
	if warm {
		_, sess, _ := d.live.Snapshot()
		ss := sess.Stats()
		st.SessionAcquires = ss.Acquires
		st.SessionBuilds = ss.Builds
	}
	return st
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
