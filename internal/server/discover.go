package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"

	"relatrust"
)

// DiscoverRequest is the JSON body of POST /v1/discover (and the
// discovery job submission). Dataset is required; the discovery knobs
// mirror relatrust.DiscoverOptions with attribute names instead of
// positions. Mode "discover_then_repair" appends a frontier sweep over
// the mined Σ, tuned by the same repair fields /v1/repair takes.
type DiscoverRequest struct {
	// Dataset names a registered dataset.
	Dataset string `json:"dataset"`

	// MaxLHS is the largest LHS size to explore (0 = the default, 3).
	MaxLHS int `json:"max_lhs,omitempty"`
	// MaxError is the largest tolerated g3 error fraction (0 = exact FDs).
	MaxError float64 `json:"max_error,omitempty"`
	// MaxResults stops mining after this many FDs (0 = unlimited).
	MaxResults int `json:"max_results,omitempty"`
	// Attrs restricts mining to the named attributes, comma-separated
	// ("City,ZIP"). Empty means all.
	Attrs string `json:"attrs,omitempty"`

	// Mode selects the flow: "" mines and streams FDs; and
	// "discover_then_repair" feeds the mined Σ straight into a frontier
	// sweep — the paper's end-to-end story for rule-less uploads.
	Mode string `json:"mode,omitempty"`

	// TauLow/TauHigh restrict the appended frontier sweep
	// (discover_then_repair only); TauHigh nil or negative means δP(Σ, I).
	TauLow  int  `json:"tau_low,omitempty"`
	TauHigh *int `json:"tau_high,omitempty"`
	// Weights, BestFirst, Workers, Seed, MaxVisited, IncludeChanges tune
	// the appended sweep exactly as on /v1/repair; NoPartitionCache and
	// NoDecomposition are accepted and ignored there, and here.
	Weights          string `json:"weights,omitempty"`
	BestFirst        bool   `json:"best_first,omitempty"`
	Workers          int    `json:"workers,omitempty"`
	Seed             int64  `json:"seed,omitempty"`
	MaxVisited       int    `json:"max_visited,omitempty"`
	NoPartitionCache bool   `json:"no_partition_cache,omitempty"`
	NoDecomposition  bool   `json:"no_decomposition,omitempty"`
	IncludeChanges   bool   `json:"include_changes,omitempty"`

	// TimeoutMS imposes a server-side deadline on the whole run (mining
	// plus the appended sweep); exceeding it reports deadline_exceeded.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

const modeDiscoverThenRepair = "discover_then_repair"

// decodeDiscoverRequest parses and shape-checks the body — untrusted
// input, handled with the same strictness as decodeRepairRequest.
func decodeDiscoverRequest(r io.Reader) (DiscoverRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req DiscoverRequest
	if err := dec.Decode(&req); err != nil {
		return DiscoverRequest{}, err
	}
	if dec.More() {
		return DiscoverRequest{}, fmt.Errorf("unexpected data after the request object")
	}
	return req, nil
}

// discoverFrame is one streamed discovery: the FD rendered with attribute
// names, its lattice level, and — for approximate mining — its g3 error.
// NDJSON: one line per FD; SSE: an "fd" event.
type discoverFrame struct {
	N     int     `json:"n"`
	FD    string  `json:"fd"`
	Level int     `json:"level"`
	Error float64 `json:"error,omitempty"`
}

// sigmaFrame closes the mining phase: the full mined set, sorted, in
// ParseFDs syntax — ready to submit to /v1/repair verbatim. NDJSON: a
// line carrying "sigma"; SSE: a "sigma" event.
type sigmaFrame struct {
	Sigma string `json:"sigma"`
	FDs   int    `json:"fds"`
}

// fdRow emits one discovery frame ("fd" SSE event, or an NDJSON line).
func (st *stream) fdRow(v discoverFrame) error {
	if st.sse {
		return st.event("fd", v)
	}
	return st.line(v)
}

// sigmaRow emits the mined-set frame.
func (st *stream) sigmaRow(v sigmaFrame) error {
	if st.sse {
		return st.event("sigma", v)
	}
	return st.line(v)
}

// handleDiscover streams mined FDs the moment the lattice walk finds
// them, over the same NDJSON/SSE plumbing as /v1/repair: pre-stream
// failures are status responses, mid-stream failures arrive in-band, and
// the run holds a sweep slot so discovery sheds load like any sweep. In
// discover_then_repair mode the mined Σ feeds a frontier sweep whose rows
// are byte-identical to posting the sigma frame's string to /v1/repair.
func (s *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	req, err := decodeDiscoverRequest(http.MaxBytesReader(w, r.Body, s.opt.MaxUploadBytes))
	if err != nil {
		writeErrorCode(w, http.StatusBadRequest, codeBadRequest, "decoding discover request: %v", err)
		return
	}
	d := s.lookup(req.Dataset)
	if d == nil {
		writeErrorCode(w, http.StatusNotFound, codeUnknownDataset, "dataset %q is not registered", req.Dataset)
		return
	}
	in, sess, gen := s.snapshotFor(d)
	dopt, ok := s.discoverOptions(w, d, req, in, sess)
	if !ok {
		return
	}
	// Repair-mode knobs are validated before the 200 commits, like
	// /v1/repair's: a malformed range is a client mistake, not a failure.
	switch req.Mode {
	case "", modeDiscoverThenRepair:
	default:
		writeErrorCode(w, http.StatusBadRequest, codeBadRequest,
			"unknown mode %q (want %q)", req.Mode, modeDiscoverThenRepair)
		return
	}
	if req.TauLow < 0 {
		writeErrorCode(w, http.StatusBadRequest, codeBadRequest, "tau_low must be non-negative")
		return
	}
	if req.TauHigh != nil && *req.TauHigh >= 0 && req.TauLow > *req.TauHigh {
		writeErrorCode(w, http.StatusBadRequest, codeBadRequest,
			"tau_low %d exceeds tau_high %d", req.TauLow, *req.TauHigh)
		return
	}
	dv, err := relatrust.NewDiscoverer(in, dopt)
	if err != nil {
		status, body := mapError(err, in.Schema)
		writeError(w, status, body)
		return
	}

	// Admission: a discovery run occupies a sweep slot exactly like a
	// repair sweep, reusing the shared prologue via a synthesized call.
	call := repairCall{req: RepairRequest{TimeoutMS: req.TimeoutMS}, ds: d, in: in, gen: gen}
	ctx, done, ok := s.startSweep(w, r, call)
	if !ok {
		return
	}
	st := newStream(w, r)
	rows := 0
	var mined relatrust.FDSet
	runErr := func() (sweepErr error) {
		defer s.recoverSweep(d.name, &sweepErr)
		for f, err := range dv.Stream(ctx) {
			if err != nil {
				return err
			}
			rows++
			frame := discoverFrame{N: rows, FD: f.FD.Format(in.Schema), Level: f.Level, Error: f.Error}
			if err := st.fdRow(frame); err != nil {
				return context.Canceled
			}
			mined = append(mined, f.FD)
		}
		return nil
	}()
	if runErr != nil {
		_, body := mapError(runErr, in.Schema)
		st.fail(body)
		done(rows, runErr)
		return
	}
	sortSigma(mined)
	if err := st.sigmaRow(sigmaFrame{Sigma: mined.Format(in.Schema), FDs: len(mined)}); err != nil {
		done(rows, context.Canceled)
		return
	}
	if req.Mode != modeDiscoverThenRepair {
		st.done(rows)
		done(rows, nil)
		return
	}

	// discover_then_repair: the mined Σ drives a frontier sweep identical
	// to posting it to /v1/repair — same options path, same frame bytes,
	// rows renumbered from 1.
	repairRows, repairErr := s.repairMined(ctx, d, req, in, sess, gen, mined, st)
	if repairErr != nil {
		_, body := mapError(repairErr, in.Schema)
		st.fail(body)
		done(rows+repairRows, repairErr)
		return
	}
	st.done(rows + repairRows)
	done(rows+repairRows, nil)
}

// sortSigma orders a mined Σ the way the batch discovery entry points do
// (RHS, then LHS size, then LHS) — the canonical order of the sigma frame.
func sortSigma(set relatrust.FDSet) {
	sort.Slice(set, func(i, j int) bool {
		if set[i].RHS != set[j].RHS {
			return set[i].RHS < set[j].RHS
		}
		if set[i].LHS.Len() != set[j].LHS.Len() {
			return set[i].LHS.Len() < set[j].LHS.Len()
		}
		return set[i].LHS < set[j].LHS
	})
}

// discoverOptions maps the request's discovery knobs onto the facade
// options, resolving attribute names against the pinned snapshot's schema
// and wiring the observe hook. On failure it writes the error response.
func (s *Server) discoverOptions(w http.ResponseWriter, d *dataset, req DiscoverRequest, in *relatrust.Instance, sess *relatrust.Session) (relatrust.DiscoverOptions, bool) {
	var opt relatrust.DiscoverOptions
	if req.MaxLHS < 0 || req.MaxResults < 0 {
		writeErrorCode(w, http.StatusBadRequest, codeBadRequest, "max_lhs and max_results must be non-negative")
		return opt, false
	}
	if req.MaxError < 0 || req.MaxError > 1 {
		writeErrorCode(w, http.StatusBadRequest, codeBadRequest, "max_error must be within [0, 1]")
		return opt, false
	}
	var attrs relatrust.AttrSet
	if req.Attrs != "" {
		var err error
		if attrs, err = in.Schema.ParseAttrs(req.Attrs); err != nil {
			writeErrorCode(w, http.StatusBadRequest, codeBadRequest, "parsing attrs: %v", err)
			return opt, false
		}
	}
	observe := s.opt.ObserveDiscovery
	opt = relatrust.DiscoverOptions{
		MaxLHS:     req.MaxLHS,
		MaxError:   req.MaxError,
		MaxResults: req.MaxResults,
		Attrs:      attrs,
		Session:    sess,
	}
	if observe != nil {
		opt.Progress = func(level, sets int) { observe(d.name, level, sets) }
	}
	return opt, true
}

// repairMined runs the appended frontier sweep of discover_then_repair.
// It resolves the τ range the way /v1/repair does (post-mining, because
// δP depends on Σ) and streams through the shared streamFrontier, so each
// frame is byte-identical to the two-step flow's.
func (s *Server) repairMined(ctx context.Context, d *dataset, req DiscoverRequest, in *relatrust.Instance, sess *relatrust.Session, gen int64, mined relatrust.FDSet, st *stream) (int, error) {
	if len(mined) == 0 {
		return 0, relatrust.ErrEmptyFDSet
	}
	rreq := RepairRequest{
		Dataset:        req.Dataset,
		TauLow:         req.TauLow,
		TauHigh:        req.TauHigh,
		Weights:        req.Weights,
		BestFirst:      req.BestFirst,
		Workers:        req.Workers,
		Seed:           req.Seed,
		MaxVisited:     req.MaxVisited,
		IncludeChanges: req.IncludeChanges,
		TimeoutMS:      req.TimeoutMS,
	}
	opt, err := s.options(d, rreq, in, sess)
	if err != nil {
		return 0, err
	}
	rp, err := relatrust.NewRepairer(in, mined, opt)
	if err != nil {
		return 0, err
	}
	lo := rreq.TauLow
	hi := -1
	if rreq.TauHigh != nil && *rreq.TauHigh >= 0 {
		hi = *rreq.TauHigh
	} else {
		if hi, err = rp.MaxBudget(ctx); err != nil {
			return 0, err
		}
	}
	if lo > hi {
		return 0, fmt.Errorf("tau_low %d exceeds the sweep's upper bound %d", lo, hi)
	}
	call := repairCall{req: rreq, ds: d, in: in, gen: gen, sigma: mined, rp: rp}
	return s.streamFrontier(ctx, call, st, lo, hi)
}
