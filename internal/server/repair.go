package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"time"

	"relatrust"

	"relatrust/internal/faultinject"
	"relatrust/internal/jobs"
	"relatrust/internal/report"
	"relatrust/internal/weights"
)

// RepairRequest is the JSON body shared by the repair-family endpoints.
// Dataset and FDs are always required; the remaining fields tune the
// specific endpoint (tau for /v1/repair/budget, k for /v1/sample, max for
// /v1/violations) or map one-to-one onto relatrust.Options.
type RepairRequest struct {
	// Dataset names a registered dataset.
	Dataset string `json:"dataset"`
	// FDs is the FD set in relatrust.ParseFDs syntax ("A,B->C; D->E").
	FDs string `json:"fds"`

	// Tau is the cell-change budget (/v1/repair/budget; required there).
	Tau *int `json:"tau,omitempty"`
	// TauLow/TauHigh restrict the frontier sweep (/v1/repair); TauHigh
	// nil or negative means δP(Σ, I).
	TauLow  int  `json:"tau_low,omitempty"`
	TauHigh *int `json:"tau_high,omitempty"`
	// K is the number of sampled data repairs (/v1/sample; required there).
	K int `json:"k,omitempty"`
	// Max caps reported violating pairs (/v1/violations; 0 = 1000).
	Max int `json:"max,omitempty"`

	// Weights selects the FD-modification weighting: attr-count,
	// distinct-count (default), entropy, or mdl.
	Weights string `json:"weights,omitempty"`
	// BestFirst, Workers, Seed, MaxVisited mirror relatrust.Options.
	BestFirst  bool  `json:"best_first,omitempty"`
	Workers    int   `json:"workers,omitempty"`
	Seed       int64 `json:"seed,omitempty"`
	MaxVisited int   `json:"max_visited,omitempty"`
	// NoPartitionCache and NoDecomposition named engine knobs that no
	// longer exist. They are accepted and ignored for one release, so
	// clients that still send them keep working; the sweep is the same
	// either way.
	NoPartitionCache bool `json:"no_partition_cache,omitempty"`
	NoDecomposition  bool `json:"no_decomposition,omitempty"`

	// TimeoutMS imposes a server-side deadline on the sweep; exceeding it
	// reports deadline_exceeded. 0 means no deadline beyond the client's.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// IncludeChanges adds the changed-cell listing to each repair.
	IncludeChanges bool `json:"include_changes,omitempty"`
}

// decodeRepairRequest parses and shape-checks the body. It is the JSON
// half of the service's untrusted input surface (the CSV upload being the
// other) and is fuzzed as such.
func decodeRepairRequest(r io.Reader) (RepairRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req RepairRequest
	if err := dec.Decode(&req); err != nil {
		return RepairRequest{}, err
	}
	if dec.More() {
		// A concatenated second document means the client sent something
		// other than one request; answering only the first half would
		// silently drop payload.
		return RepairRequest{}, fmt.Errorf("unexpected data after the request object")
	}
	return req, nil
}

// CellChange is the wire form of one repaired cell. After renders
// variables ("any fresh value") as ?vN.
type CellChange struct {
	Tuple  int    `json:"tuple"`
	Attr   string `json:"attr"`
	Before string `json:"before"`
	After  string `json:"after"`
}

// frontierFrame is one streamed repair: the shared wire row, plus the
// changed cells when the request asked for them. With Changes empty the
// encoding is byte-identical to report.Row's.
type frontierFrame struct {
	report.Row
	Changes []CellChange `json:"changes,omitempty"`
}

func changesOf(in *relatrust.Instance, d *relatrust.DataRepair) []CellChange {
	out := make([]CellChange, 0, len(d.Changed))
	for _, c := range d.Changed {
		out = append(out, CellChange{
			Tuple:  c.Tuple,
			Attr:   in.Schema.Name(c.Attr),
			Before: in.Tuples[c.Tuple][c.Attr].String(),
			After:  d.Instance.Tuples[c.Tuple][c.Attr].String(),
		})
	}
	return out
}

// repairCall is the validated common prefix of the repair-family handlers.
// in and gen are the snapshot the call is pinned to: mutation batches
// committing mid-sweep never change what this call streams.
type repairCall struct {
	req   RepairRequest
	ds    *dataset
	in    *relatrust.Instance
	gen   int64
	sigma relatrust.FDSet
	rp    *relatrust.Repairer
}

// prepare decodes the request, resolves the dataset, pins its current
// snapshot, parses the FDs, and constructs the Repairer over the pinned
// session. On failure it writes the error response and returns false.
func (s *Server) prepare(w http.ResponseWriter, r *http.Request) (repairCall, bool) {
	var c repairCall
	req, err := decodeRepairRequest(http.MaxBytesReader(w, r.Body, s.opt.MaxUploadBytes))
	if err != nil {
		writeErrorCode(w, http.StatusBadRequest, codeBadRequest, "decoding repair request: %v", err)
		return c, false
	}
	c.req = req
	if c.ds = s.lookup(req.Dataset); c.ds == nil {
		writeErrorCode(w, http.StatusNotFound, codeUnknownDataset, "dataset %q is not registered", req.Dataset)
		return c, false
	}
	var sess *relatrust.Session
	c.in, sess, c.gen = s.snapshotFor(c.ds)
	if c.sigma, err = relatrust.ParseFDs(c.in.Schema, req.FDs); err != nil {
		writeErrorCode(w, http.StatusBadRequest, codeBadFDs, "parsing FDs: %v", err)
		return c, false
	}
	opt, err := s.options(c.ds, req, c.in, sess)
	if err != nil {
		writeErrorCode(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return c, false
	}
	if c.rp, err = relatrust.NewRepairer(c.in, c.sigma, opt); err != nil {
		status, body := mapError(err, c.in.Schema)
		writeError(w, status, body)
		return c, false
	}
	return c, true
}

// options maps the request onto relatrust.Options over the pinned
// snapshot's session, wiring the progress hook that feeds /statz and
// Options.Observe. in must be the instance of the same snapshot, so the
// weighting describes the rows the sweep actually repairs.
func (s *Server) options(d *dataset, req RepairRequest, in *relatrust.Instance, sess *relatrust.Session) (relatrust.Options, error) {
	opt := relatrust.Options{
		BestFirst:  req.BestFirst,
		Seed:       req.Seed,
		MaxVisited: req.MaxVisited,
		Workers:    req.Workers,
		Session:    sess,
	}
	if opt.Workers == 0 {
		opt.Workers = s.opt.Workers
	}
	if req.Weights != "" {
		w, err := weights.ByName(req.Weights, in)
		if err != nil {
			return opt, err
		}
		opt.Weights = w
	}
	observe := s.opt.Observe
	opt.Progress = func(ev relatrust.ProgressEvent) {
		if ev.Kind == relatrust.ProgressSweepFinished {
			d.mu.Lock()
			d.lastComponents = ev.Components
			d.lastLargestComponent = ev.LargestComponent
			d.lastComponentsParallel = ev.ComponentsParallel
			d.mu.Unlock()
		}
		if observe != nil {
			observe(d.name, ev)
		}
	}
	return opt, nil
}

// sweepCtx applies the request's optional server-side deadline.
func sweepCtx(r *http.Request, req RepairRequest) (context.Context, context.CancelFunc) {
	if req.TimeoutMS > 0 {
		return context.WithTimeout(r.Context(), time.Duration(req.TimeoutMS)*time.Millisecond)
	}
	return context.WithCancel(r.Context())
}

// sweepDone records one sweep's outcome: finished, cancelled (a client
// disconnect or deadline), or failed (any other error — MaxVisited, an
// internal fault). The classification lives here so the three sweeping
// handlers cannot drift apart.
func (d *dataset) sweepDone(rows int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rowsStreamed += int64(rows)
	switch {
	case err == nil:
		d.sweepsFinished++
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded),
		// Job sweeps surface their cancellation causes directly.
		errors.Is(err, jobs.ErrCancelled), errors.Is(err, jobs.ErrDatasetDeleted),
		errors.Is(err, jobs.ErrInterrupted):
		d.sweepsCancelled++
	default:
		d.sweepsFailed++
	}
}

// startSweep is the shared prologue of the sweeping handlers: it admits
// the sweep (or sheds it — a saturated dataset semaphore or global cap is
// a 429 with a Retry-After, a draining server a 503; neither queues),
// applies the request deadline, and counts the start. On ok the caller
// must invoke done exactly once with the sweep's row count and terminal
// error.
func (s *Server) startSweep(w http.ResponseWriter, r *http.Request, c repairCall) (context.Context, func(rows int, err error), bool) {
	if err := faultinject.Hit(faultinject.SweepStart); err != nil {
		writeErrorCode(w, http.StatusInternalServerError, codeInternal, "starting sweep: %v", err)
		return nil, nil, false
	}
	if err := s.beginSweepSlot(c.ds); err != nil {
		if errors.Is(err, ErrShuttingDown) {
			writeErrorCode(w, http.StatusServiceUnavailable, codeShuttingDown,
				"server is shutting down")
			return nil, nil, false
		}
		c.ds.mu.Lock()
		c.ds.sweepsShed++
		c.ds.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeErrorCode(w, http.StatusTooManyRequests, codeOverloaded,
			"sweep capacity for dataset %q is saturated; retry shortly", c.ds.name)
		return nil, nil, false
	}
	ctx, cancel := sweepCtx(r, c.req)
	c.ds.mu.Lock()
	c.ds.sweepsStarted++
	c.ds.mu.Unlock()
	done := func(rows int, err error) {
		c.ds.sweepDone(rows, err)
		s.endSweepSlot(c.ds)
		cancel()
	}
	return ctx, done, true
}

// handleRepair streams the frontier. The semaphore is held for the whole
// sweep; validation errors are pre-stream status responses, while sweep
// failures — cancellation, deadline, MaxVisited — arrive in-band because
// the 200 header is already committed.
func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	c, ok := s.prepare(w, r)
	if !ok {
		return
	}
	// Resolve and validate the τ range before the 200 commits: a
	// malformed range is a client mistake, not a sweep failure.
	lo := c.req.TauLow
	if lo < 0 {
		writeErrorCode(w, http.StatusBadRequest, codeBadRequest, "tau_low must be non-negative")
		return
	}
	hi := -1
	if c.req.TauHigh != nil && *c.req.TauHigh >= 0 {
		hi = *c.req.TauHigh
	} else {
		dp, err := c.rp.MaxBudget(r.Context())
		if err != nil {
			status, body := mapError(err, c.in.Schema)
			writeError(w, status, body)
			return
		}
		hi = dp
	}
	if lo > hi {
		writeErrorCode(w, http.StatusBadRequest, codeBadRequest,
			"tau_low %d exceeds the sweep's upper bound %d", lo, hi)
		return
	}

	ctx, done, ok := s.startSweep(w, r, c)
	if !ok {
		return
	}
	st := newStream(w, r)
	rows, sweepErr := s.streamFrontier(ctx, c, st, lo, hi)
	if sweepErr != nil {
		_, body := mapError(sweepErr, c.in.Schema)
		st.fail(body)
	} else {
		st.done(rows)
	}
	done(rows, sweepErr)
}

// streamFrontier runs the sweep and emits each frontier row as it lands.
// The 200 is already committed when it runs, so it recovers its own
// panics — a panic mid-sweep becomes the terminal error of the stream
// (delivered in-band by the caller), with the stack logged; the sweep's
// forked state never re-enters the shared session, which stays usable.
func (s *Server) streamFrontier(ctx context.Context, c repairCall, st *stream, lo, hi int) (rows int, sweepErr error) {
	defer s.recoverSweep(c.ds.name, &sweepErr)
	for rep, err := range c.rp.FrontierRange(ctx, lo, hi) {
		if err != nil {
			sweepErr = err
			break
		}
		if err := faultinject.Hit(faultinject.StreamEmit); err != nil {
			sweepErr = err
			break
		}
		rows++
		frame := frontierFrame{Row: report.RowOf(c.in, rows, rep)}
		if c.req.IncludeChanges {
			frame.Changes = changesOf(c.in, rep.Data)
		}
		if err := st.row(frame); err != nil {
			// The client is gone; breaking the range loop stops the
			// sweep, and the outcome counts as cancelled.
			sweepErr = context.Canceled
			break
		}
	}
	return rows, sweepErr
}

// recoverSweep is the deferred second line of panic defense (the first is
// the search pool's own recovery, which already yields a PanicError): any
// panic that unwinds out of sweep code on the handler goroutine becomes
// the sweep's terminal error instead of escaping past the slot release.
// The stack goes to the log; the error maps to internal_panic on the wire.
func (s *Server) recoverSweep(dataset string, sweepErr *error) {
	if rec := recover(); rec != nil {
		stack := debug.Stack()
		s.panics.Add(1)
		s.log.Error("server: panic during sweep",
			"dataset", dataset, "panic", rec, "stack", string(stack))
		*sweepErr = &relatrust.PanicError{Value: rec, Stack: stack}
	}
}

// runBudget and runSample wrap the facade calls of the non-streaming
// sweep handlers in recoverSweep, so a panic is released and reported
// exactly like any other sweep failure.
func (s *Server) runBudget(ctx context.Context, c repairCall) (rep *relatrust.Repair, err error) {
	defer s.recoverSweep(c.ds.name, &err)
	return c.rp.RepairWithBudget(ctx, *c.req.Tau)
}

func (s *Server) runSample(ctx context.Context, c repairCall) (samples []*relatrust.DataRepair, err error) {
	defer s.recoverSweep(c.ds.name, &err)
	return c.rp.Sample(ctx, c.req.K)
}

// handleBudget answers the single-τ repair (the paper's Algorithm 1).
func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	c, ok := s.prepare(w, r)
	if !ok {
		return
	}
	if c.req.Tau == nil || *c.req.Tau < 0 {
		writeErrorCode(w, http.StatusBadRequest, codeBadRequest, "budget repair needs a non-negative tau")
		return
	}
	ctx, done, ok := s.startSweep(w, r, c)
	if !ok {
		return
	}
	rep, err := s.runBudget(ctx, c)
	if err != nil {
		done(0, err)
		status, body := mapError(err, c.in.Schema)
		writeError(w, status, body)
		return
	}
	frame := frontierFrame{Row: report.RowOf(c.in, 1, rep)}
	if c.req.IncludeChanges {
		frame.Changes = changesOf(c.in, rep.Data)
	}
	done(1, nil)
	writeJSON(w, http.StatusOK, struct {
		Repair frontierFrame `json:"repair"`
	}{frame})
}

// sampleResponse is the body of POST /v1/sample.
type sampleResponse struct {
	Samples []sampleRepair `json:"samples"`
}

type sampleRepair struct {
	CellChanges int          `json:"cell_changes"`
	Changes     []CellChange `json:"changes,omitempty"`
}

// handleSample draws k distinct minimal data-only repairs.
func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	c, ok := s.prepare(w, r)
	if !ok {
		return
	}
	if c.req.K <= 0 {
		writeErrorCode(w, http.StatusBadRequest, codeBadRequest, "sampling needs k ≥ 1")
		return
	}
	ctx, done, ok := s.startSweep(w, r, c)
	if !ok {
		return
	}
	samples, err := s.runSample(ctx, c)
	if err != nil {
		done(0, err)
		status, body := mapError(err, c.in.Schema)
		writeError(w, status, body)
		return
	}
	resp := sampleResponse{Samples: make([]sampleRepair, 0, len(samples))}
	for _, d := range samples {
		sr := sampleRepair{CellChanges: d.NumChanges()}
		if c.req.IncludeChanges {
			sr.Changes = changesOf(c.in, d)
		}
		resp.Samples = append(resp.Samples, sr)
	}
	done(len(samples), nil)
	writeJSON(w, http.StatusOK, resp)
}

// violationsResponse is the body of POST /v1/violations.
type violationsResponse struct {
	Satisfied  bool            `json:"satisfied"`
	Count      int             `json:"count"`
	Truncated  bool            `json:"truncated"`
	Violations []wireViolation `json:"violations"`
}

type wireViolation struct {
	T1      int    `json:"t1"`
	T2      int    `json:"t2"`
	FDIndex int    `json:"fd_index"`
	FD      string `json:"fd"`
}

// handleViolations reports violating tuple pairs. It needs no sweep slot —
// no search runs — but the pair listing is capped (request max, default
// 1000) because a badly violated instance has quadratically many.
func (s *Server) handleViolations(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRepairRequest(http.MaxBytesReader(w, r.Body, s.opt.MaxUploadBytes))
	if err != nil {
		writeErrorCode(w, http.StatusBadRequest, codeBadRequest, "decoding violations request: %v", err)
		return
	}
	ds := s.lookup(req.Dataset)
	if ds == nil {
		writeErrorCode(w, http.StatusNotFound, codeUnknownDataset, "dataset %q is not registered", req.Dataset)
		return
	}
	// Pin the current generation's rows once: the scan and the formatted
	// output describe the same instance even if a PATCH lands mid-request.
	in := ds.live.Rows()
	sigma, err := relatrust.ParseFDs(in.Schema, req.FDs)
	if err != nil {
		writeErrorCode(w, http.StatusBadRequest, codeBadFDs, "parsing FDs: %v", err)
		return
	}
	if len(sigma) == 0 {
		status, body := mapError(relatrust.ErrEmptyFDSet, in.Schema)
		writeError(w, status, body)
		return
	}
	if req.Max < 0 {
		writeErrorCode(w, http.StatusBadRequest, codeBadRequest, "max must be non-negative")
		return
	}
	max := req.Max
	if max == 0 {
		max = 1000
	}
	// Ask for one extra pair to detect truncation without enumerating all;
	// the same scan answers satisfaction (no pairs at all = satisfied),
	// so no second pass over the instance is needed.
	found := relatrust.Violations(in, sigma, max+1)
	truncated := len(found) > max
	if truncated {
		found = found[:max]
	}
	resp := violationsResponse{
		Satisfied:  len(found) == 0,
		Count:      len(found),
		Truncated:  truncated,
		Violations: make([]wireViolation, 0, len(found)),
	}
	for _, v := range found {
		resp.Violations = append(resp.Violations, wireViolation{
			T1:      v.T1,
			T2:      v.T2,
			FDIndex: v.FD,
			FD:      sigma[v.FD].Format(in.Schema),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}
