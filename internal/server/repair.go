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

	// TimeoutMS imposes a server-side deadline on the sweep; exceeding it
	// reports deadline_exceeded. 0 means no deadline beyond the client's.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// IncludeChanges adds the changed-cell listing to each repair.
	IncludeChanges bool `json:"include_changes,omitempty"`
}

// decodeStrict parses one request object from an untrusted body (the
// JSON half of the service's input surface, the CSV upload being the
// other; fuzzed as such): an unknown field is an error, and so is
// anything after the object — a concatenated second document means the
// client sent something other than one request, and answering only the
// first half would silently drop payload.
func decodeStrict[T any](r io.Reader) (T, error) {
	var v, zero T
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return zero, err
	}
	if dec.More() {
		return zero, fmt.Errorf("unexpected data after the request object")
	}
	return v, nil
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
			After:  d.Value(c).String(),
		})
	}
	return out
}

// repairCall is the validated common prefix of the repair-family handlers.
// in is the snapshot the call is pinned to: mutation batches committing
// mid-sweep never change what this call streams.
type repairCall struct {
	req RepairRequest
	ds  *dataset
	in  *relatrust.Instance
	rp  *relatrust.Repairer
}

// prepare decodes the request, resolves the dataset, pins its current
// snapshot, parses the FDs, and constructs the Repairer over the pinned
// session. On failure it writes the error response and returns false.
func (s *Server) prepare(w http.ResponseWriter, r *http.Request) (repairCall, bool) {
	c, err := s.prepareCall(http.MaxBytesReader(w, r.Body, s.opt.MaxUploadBytes))
	if err != nil {
		var schema *relatrust.Schema
		if c.in != nil {
			schema = c.in.Schema
		}
		writeError(w, err, schema)
		return c, false
	}
	return c, true
}

// prepareCall is prepare's body; c.in is set once the snapshot is pinned,
// so a failure after that renders against its schema.
func (s *Server) prepareCall(body io.Reader) (c repairCall, err error) {
	if c.req, err = decodeStrict[RepairRequest](body); err != nil {
		return c, badRequest("decoding repair request: %v", err)
	}
	if c.ds, err = s.find(c.req.Dataset); err != nil {
		return c, err
	}
	var sess *relatrust.Session
	c.in, sess, _ = s.snapshotFor(c.ds)
	sigma, err := parseFDs(c.in.Schema, c.req.FDs)
	if err != nil {
		return c, err
	}
	opt, err := s.options(c.ds, c.req, sess)
	if err != nil {
		return c, badRequest("%v", err)
	}
	c.rp, err = relatrust.NewRepairer(c.in, sigma, opt)
	return c, err
}

// parseFDs parses a request's FD set; failure is a 400 bad_fds.
func parseFDs(schema *relatrust.Schema, text string) (relatrust.FDSet, error) {
	sigma, err := relatrust.ParseFDs(schema, text)
	if err != nil {
		return nil, &requestError{http.StatusBadRequest, codeBadFDs, "parsing FDs: " + err.Error()}
	}
	return sigma, nil
}

// options maps the request onto relatrust.Options over the pinned
// snapshot's session, wiring the progress hook that feeds /statz and
// Options.Observe. The weighting resolves through the same session, so
// it describes the rows the sweep actually repairs and shares the
// snapshot's weight memo with every other sweep over it.
func (s *Server) options(d *dataset, req RepairRequest, sess *relatrust.Session) (relatrust.Options, error) {
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
		w, err := sess.Weights(req.Weights)
		if err != nil {
			return opt, err
		}
		opt.Weights = w
	}
	observe := s.opt.Observe
	opt.Progress = func(ev relatrust.ProgressEvent) {
		if ev.Kind == relatrust.ProgressSweepFinished {
			d.mu.Lock()
			d.counters.Components = ev.Components
			d.counters.LargestComponent = ev.LargestComponent
			d.counters.ComponentsParallel = ev.ComponentsParallel
			d.mu.Unlock()
		}
		if observe != nil {
			observe(d.name, ev)
		}
	}
	return opt, nil
}

// tauRange resolves and checks a frontier sweep's τ range [lo, hi]: lo
// must be non-negative and no larger than the upper bound, which is high
// when set (non-nil, non-negative) and δP(Σ, I) otherwise. deltaP
// computes δP; with deltaP nil the bound stays -1, for the sweep to
// resolve when it runs (a job, or the pre-mining check of
// discover_then_repair).
func tauRange(lo int, high *int, deltaP func() (int, error)) (int, int, error) {
	if lo < 0 {
		return 0, 0, badRequest("tau_low must be non-negative")
	}
	hi := -1
	switch {
	case high != nil && *high >= 0:
		hi = *high
	case deltaP != nil:
		var err error
		if hi, err = deltaP(); err != nil {
			return 0, 0, err
		}
	}
	if hi >= 0 && lo > hi {
		return 0, 0, badRequest("tau_low %d exceeds the sweep's upper bound %d", lo, hi)
	}
	return lo, hi, nil
}

// sweepDone records one sweep's outcome: finished, cancelled (a client
// disconnect, a deadline, or a job's cancellation cause), or failed (any
// other error — MaxVisited, an internal fault).
func (d *dataset) sweepDone(rows int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.counters.RowsStreamed += int64(rows)
	switch {
	case err == nil:
		d.counters.SweepsFinished++
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded),
		// Job sweeps surface their cancellation causes directly.
		errors.Is(err, jobs.ErrCancelled), errors.Is(err, jobs.ErrDatasetDeleted),
		errors.Is(err, jobs.ErrInterrupted):
		d.counters.SweepsCancelled++
	default:
		d.counters.SweepsFailed++
	}
}

// startSweep is the prologue of the sweeping request handlers: it admits
// the sweep (or answers the shed request — see writeAdmitError) and
// applies the request's optional server-side deadline. On ok the caller
// must invoke done exactly once, after the sweep.
func (s *Server) startSweep(w http.ResponseWriter, r *http.Request, d *dataset, timeoutMS int) (context.Context, func(), bool) {
	if err := faultinject.Hit(faultinject.SweepStart); err != nil {
		writeErrorCode(w, http.StatusInternalServerError, codeInternal, "starting sweep: %v", err)
		return nil, nil, false
	}
	release, err := s.admit(d, false)
	if err != nil {
		writeAdmitError(w, d, err)
		return nil, nil, false
	}
	ctx, cancel := context.WithCancel(r.Context())
	if timeoutMS > 0 {
		ctx, cancel = context.WithTimeout(r.Context(), time.Duration(timeoutMS)*time.Millisecond)
	}
	return ctx, func() { release(); cancel() }, true
}

// runSweep runs one admitted sweep body: it is the one prologue of every
// sweep, request or job. A panic that unwinds out of sweep code (the
// first line of defense is the search pool's own recovery, which already
// yields a PanicError) becomes the sweep's terminal error instead of
// escaping past the slot release — the stack goes to the log, the error
// maps to internal_panic on the wire, and the sweep's forked state never
// re-enters the shared session. The outcome is counted against d.
func (s *Server) runSweep(d *dataset, body func() (int, error), logAttrs ...any) (rows int, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			stack := debug.Stack()
			s.panics.Add(1)
			s.log.Error("server: panic during sweep", append([]any{
				"dataset", d.name, "panic", rec, "stack", string(stack)}, logAttrs...)...)
			err = &relatrust.PanicError{Value: rec, Stack: stack}
		}
		d.sweepDone(rows, err)
	}()
	return body()
}

// frontierSweep is the frontier kind's frame loop, run by /v1/repair,
// discover_then_repair and frontier jobs alike: it sweeps rp's frontier
// over [lo, hi] (hi < 0: from δP), numbers the rows after level, and
// emits each row's wire bytes the moment the search yields it.
func frontierSweep(ctx context.Context, in *relatrust.Instance, rp *relatrust.Repairer, lo, hi, level int, changes bool, emit func([]byte) error) (rows int, err error) {
	for rep, err := range rp.FrontierRange(ctx, lo, hi) {
		if err != nil {
			return rows, err
		}
		if err := faultinject.Hit(faultinject.StreamEmit); err != nil {
			return rows, err
		}
		frame := frontierFrame{Row: report.RowOf(in, level+rows+1, rep)}
		if changes {
			frame.Changes = changesOf(in, rep.Data)
		}
		raw, err := json.Marshal(frame)
		if err != nil {
			return rows, err
		}
		// An emit error stops the range loop, which stops the sweep.
		if err := emit(raw); err != nil {
			return rows, err
		}
		rows++
	}
	return rows, nil
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
	lo, hi, err := tauRange(c.req.TauLow, c.req.TauHigh, func() (int, error) { return c.rp.MaxBudget(r.Context()) })
	if err != nil {
		writeError(w, err, c.in.Schema)
		return
	}
	ctx, done, ok := s.startSweep(w, r, c.ds, c.req.TimeoutMS)
	if !ok {
		return
	}
	defer done()
	st := newStream(w, r)
	rows, err := s.runSweep(c.ds, func() (int, error) {
		return frontierSweep(ctx, c.in, c.rp, lo, hi, 0, c.req.IncludeChanges, st.emit(&frontierKind))
	})
	st.end(rows, err, c.in.Schema)
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
	ctx, done, ok := s.startSweep(w, r, c.ds, c.req.TimeoutMS)
	if !ok {
		return
	}
	var rep *relatrust.Repair
	_, err := s.runSweep(c.ds, func() (rows int, err error) {
		if rep, err = c.rp.RepairWithBudget(ctx, *c.req.Tau); err == nil {
			rows = 1
		}
		return rows, err
	})
	done()
	if err != nil {
		writeError(w, err, c.in.Schema)
		return
	}
	frame := frontierFrame{Row: report.RowOf(c.in, 1, rep)}
	if c.req.IncludeChanges {
		frame.Changes = changesOf(c.in, rep.Data)
	}
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
	ctx, done, ok := s.startSweep(w, r, c.ds, c.req.TimeoutMS)
	if !ok {
		return
	}
	var samples []*relatrust.DataRepair
	_, err := s.runSweep(c.ds, func() (rows int, err error) {
		samples, err = c.rp.Sample(ctx, c.req.K)
		return len(samples), err
	})
	done()
	if err != nil {
		writeError(w, err, c.in.Schema)
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
	req, err := decodeStrict[RepairRequest](http.MaxBytesReader(w, r.Body, s.opt.MaxUploadBytes))
	if err != nil {
		writeErrorCode(w, http.StatusBadRequest, codeBadRequest, "decoding violations request: %v", err)
		return
	}
	ds, err := s.find(req.Dataset)
	if err != nil {
		writeError(w, err, nil)
		return
	}
	// Pin the current generation's rows once: the scan and the formatted
	// output describe the same instance even if a PATCH lands mid-request.
	in := ds.live.Rows()
	sigma, err := parseFDs(in.Schema, req.FDs)
	if err != nil {
		writeError(w, err, in.Schema)
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
