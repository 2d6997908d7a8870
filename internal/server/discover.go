package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"slices"

	"relatrust"

	"relatrust/internal/discovery"
	"relatrust/internal/fd"
	"relatrust/internal/jobs"
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
	// the appended sweep exactly as on /v1/repair.
	Weights        string `json:"weights,omitempty"`
	BestFirst      bool   `json:"best_first,omitempty"`
	Workers        int    `json:"workers,omitempty"`
	Seed           int64  `json:"seed,omitempty"`
	MaxVisited     int    `json:"max_visited,omitempty"`
	IncludeChanges bool   `json:"include_changes,omitempty"`

	// TimeoutMS imposes a server-side deadline on the whole run (mining
	// plus the appended sweep); exceeding it reports deadline_exceeded.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

const modeDiscoverThenRepair = "discover_then_repair"

// discoverFrame is one streamed discovery: the FD rendered with attribute
// names, its lattice level, and — for approximate mining — its g3 error.
// NDJSON: one line per FD; SSE: an "fd" event.
type discoverFrame struct {
	N     int     `json:"n"`
	FD    string  `json:"fd"`
	Level int     `json:"level"`
	Error float64 `json:"error,omitempty"`
}

// sigmaFrame closes the mining phase: the full mined set in the canonical
// FD order (fd.Compare), in ParseFDs syntax — ready to submit to
// /v1/repair verbatim. NDJSON: a line carrying "sigma"; SSE: a "sigma"
// event.
type sigmaFrame struct {
	Sigma string `json:"sigma"`
	FDs   int    `json:"fds"`
}

// discoverEvent names a discovery frame's SSE event. Only the sigma
// frame's encoding starts with its "sigma" key; every other frame is one
// mined "fd".
func discoverEvent(frame []byte) string {
	if bytes.HasPrefix(frame, []byte(`{"sigma":`)) {
		return "sigma"
	}
	return "fd"
}

// discoverSweep is the discover kind's frame loop, run by /v1/discover
// and discovery jobs alike: it mines dv's FDs and emits an fd frame for
// each after the first skip (a resumed job's checkpointed frames — mining
// is deterministic, so the walk re-finds them in order), then the sigma
// frame over everything mined. rows counts the fd frames emitted.
func discoverSweep(ctx context.Context, in *relatrust.Instance, dv *relatrust.Discoverer, skip int, emit func([]byte) error) (mined relatrust.FDSet, rows int, err error) {
	for f, err := range dv.Stream(ctx) {
		if err != nil {
			return mined, rows, err
		}
		mined = append(mined, f.FD)
		if len(mined) <= skip {
			continue
		}
		raw, err := json.Marshal(discoverFrame{N: len(mined), FD: f.FD.Format(in.Schema), Level: f.Level, Error: f.Error})
		if err != nil {
			return mined, rows, err
		}
		if err := emit(raw); err != nil {
			return mined, rows, err
		}
		rows++
	}
	slices.SortFunc(mined, fd.Compare)
	raw, err := json.Marshal(sigmaFrame{Sigma: mined.Format(in.Schema), FDs: len(mined)})
	if err != nil {
		return mined, rows, err
	}
	return mined, rows, emit(raw)
}

// discoverSpec checks a discovery request's knobs and canonicalizes them
// into a job's content address: attribute names are resolved and
// re-formatted against the schema, and MaxLHS is defaulted before
// hashing, so "max_lhs": 0 and "max_lhs": 3 coalesce onto one job.
// /v1/discover mines from the same spec its job would have.
func discoverSpec(name string, gen int64, schema *relatrust.Schema, req DiscoverRequest) (jobs.Spec, error) {
	if req.MaxLHS < 0 || req.MaxResults < 0 {
		return jobs.Spec{}, badRequest("max_lhs and max_results must be non-negative")
	}
	if req.MaxError < 0 || req.MaxError > 1 {
		return jobs.Spec{}, badRequest("max_error must be within [0, 1]")
	}
	attrs := ""
	if req.Attrs != "" {
		set, err := schema.ParseAttrs(req.Attrs)
		if err != nil {
			return jobs.Spec{}, badRequest("parsing attrs: %v", err)
		}
		attrs = set.Names(schema)
	}
	maxLHS := req.MaxLHS
	if maxLHS == 0 {
		maxLHS = discovery.DefaultMaxLHS // pinned into the address
	}
	return jobs.Spec{
		Dataset:    name,
		Generation: gen,
		Kind:       discoverKindName,
		MaxLHS:     maxLHS,
		MaxError:   req.MaxError,
		MaxResults: req.MaxResults,
		Attrs:      attrs,
	}, nil
}

// discoverer builds the miner for a discovery spec over the pinned
// snapshot, wiring the observe hook.
func (s *Server) discoverer(d *dataset, spec jobs.Spec, in *relatrust.Instance, sess *relatrust.Session) (*relatrust.Discoverer, error) {
	opt := relatrust.DiscoverOptions{
		MaxLHS:     spec.MaxLHS,
		MaxError:   spec.MaxError,
		MaxResults: spec.MaxResults,
		Session:    sess,
	}
	if spec.Attrs != "" {
		var err error
		if opt.Attrs, err = in.Schema.ParseAttrs(spec.Attrs); err != nil {
			return nil, err
		}
	}
	if observe := s.opt.ObserveDiscovery; observe != nil {
		opt.Progress = func(level, sets int) { observe(d.name, level, sets) }
	}
	return relatrust.NewDiscoverer(in, opt)
}

// handleDiscover streams mined FDs the moment the lattice walk finds
// them, over the same NDJSON/SSE plumbing as /v1/repair: pre-stream
// failures are status responses, mid-stream failures arrive in-band, and
// the run holds a sweep slot so discovery sheds load like any sweep. In
// discover_then_repair mode the mined Σ feeds a frontier sweep whose rows
// are byte-identical to posting the sigma frame's string to /v1/repair.
func (s *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	req, err := decodeStrict[DiscoverRequest](http.MaxBytesReader(w, r.Body, s.opt.MaxUploadBytes))
	if err != nil {
		writeErrorCode(w, http.StatusBadRequest, codeBadRequest, "decoding discover request: %v", err)
		return
	}
	d, err := s.find(req.Dataset)
	if err != nil {
		writeError(w, err, nil)
		return
	}
	in, sess, gen := s.snapshotFor(d)
	dv, err := s.discoverRequest(d, req, in, sess, gen)
	if err != nil {
		writeError(w, err, in.Schema)
		return
	}
	ctx, done, ok := s.startSweep(w, r, d, req.TimeoutMS)
	if !ok {
		return
	}
	defer done()
	st := newStream(w, r)
	rows, err := s.runSweep(d, func() (int, error) {
		mined, rows, err := discoverSweep(ctx, in, dv, 0, st.emit(&discoverKind))
		if err != nil || req.Mode != modeDiscoverThenRepair {
			return rows, err
		}
		n, err := s.repairMined(ctx, d, req, in, sess, mined, st.emit(&frontierKind))
		return rows + n, err
	})
	st.end(rows, err, in.Schema)
}

// discoverRequest validates a /v1/discover request before the 200
// commits — its knobs, its mode, and the static part of the appended
// sweep's τ range, like /v1/repair's: a malformed request is a client
// mistake, not a failure — and builds the miner.
func (s *Server) discoverRequest(d *dataset, req DiscoverRequest, in *relatrust.Instance, sess *relatrust.Session, gen int64) (*relatrust.Discoverer, error) {
	spec, err := discoverSpec(d.name, gen, in.Schema, req)
	if err != nil {
		return nil, err
	}
	if req.Mode != "" && req.Mode != modeDiscoverThenRepair {
		return nil, badRequest("unknown mode %q (want %q)", req.Mode, modeDiscoverThenRepair)
	}
	if _, _, err := tauRange(req.TauLow, req.TauHigh, nil); err != nil {
		return nil, err
	}
	return s.discoverer(d, spec, in, sess)
}

// repairMined runs the appended frontier sweep of discover_then_repair:
// the mined Σ drives a sweep identical to posting it to /v1/repair — same
// options path, τ range resolved the same way (after mining, because δP
// depends on Σ), same frame loop, rows renumbered from 1.
func (s *Server) repairMined(ctx context.Context, d *dataset, req DiscoverRequest, in *relatrust.Instance, sess *relatrust.Session, mined relatrust.FDSet, emit func([]byte) error) (int, error) {
	if len(mined) == 0 {
		return 0, relatrust.ErrEmptyFDSet
	}
	opt, err := s.options(d, RepairRequest{
		Weights:    req.Weights,
		BestFirst:  req.BestFirst,
		Workers:    req.Workers,
		Seed:       req.Seed,
		MaxVisited: req.MaxVisited,
	}, sess)
	if err != nil {
		return 0, err
	}
	rp, err := relatrust.NewRepairer(in, mined, opt)
	if err != nil {
		return 0, err
	}
	lo, hi, err := tauRange(req.TauLow, req.TauHigh, func() (int, error) { return rp.MaxBudget(ctx) })
	if err != nil {
		return 0, err
	}
	return frontierSweep(ctx, in, rp, lo, hi, 0, req.IncludeChanges, emit)
}
