package server

// The durable job tier: POST /v1/jobs runs a frontier sweep and
// POST /v1/jobs/discover an FD-mining run detached from any connection,
// checkpointing every frame through the job store before a follower sees
// it. Followers attach (and re-attach, after a disconnect or a daemon
// restart) with GET /v1/jobs/{id}/stream?from=N: persisted frames replay
// first, then the stream follows live — the concatenation is
// byte-identical to an uninterrupted /v1/repair or /v1/discover stream of
// the same spec, SSE event names included, because both run the kind's
// one frame loop (see sweepKind). Jobs are content-addressed (see
// jobs.Spec.ID), so identical submissions coalesce onto one sweep and one
// admission slot, and completed jobs are served from the result log
// without re-admission. Jobs respect the same sweep caps as request
// sweeps: a saturated server sheds a NEW job with 429 + Retry-After
// (coalesced submissions are never shed — they cost nothing).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"relatrust"

	"relatrust/internal/jobs"
	"relatrust/internal/report"
	"relatrust/internal/weights"
)

// JobInfo is the wire description of a job (POST /v1/jobs,
// POST /v1/jobs/discover and GET /v1/jobs/{id}): its id, its spec, and
// its state.
type JobInfo struct {
	ID string `json:"id"`
	jobs.Spec
	State string `json:"state"`
	// Rows is how many frames are checkpointed and streamable.
	Rows  int          `json:"rows"`
	Error *ErrorDetail `json:"error,omitempty"`
}

func jobInfo(st jobs.Status) JobInfo {
	info := JobInfo{ID: st.ID, Spec: st.Spec, State: string(st.State), Rows: st.Rows}
	if st.ErrorCode != "" {
		info.Error = &ErrorDetail{Code: st.ErrorCode, Message: st.ErrorMessage}
	}
	return info
}

// A sweepKind is one kind of sweep relatrustd serves twice: as a request
// stream and as a durable job. Each kind has one frame loop
// (frontierSweep, discoverSweep) that both paths run; the table holds the
// rest of what differs between kinds. Everything else — admission, the
// panic and accounting prologue, the generation check, checkpointing,
// replay and following — is shared.
type sweepKind struct {
	// event names the SSE event that carries an encoded frame.
	event func(frame []byte) string
	// trailer counts the frames a completed sweep emits after its rows
	// (the discover kind's sigma frame); SSE "done" reports rows only.
	trailer int
	// spec decodes a job submission into its content address, plus the
	// engine knobs of the run it starts (they are not part of the address).
	spec func(s *Server, body io.Reader) (*dataset, jobs.Spec, RepairRequest, error)
	// resume runs the kind's frame loop for job j over the pinned
	// snapshot, continuing after the frames j already holds.
	resume func(ctx context.Context, s *Server, d *dataset, j *jobs.Job, knobs RepairRequest,
		in *relatrust.Instance, sess *relatrust.Session, emit func([]byte) error) (int, error)
}

// discoverKindName is the jobs.Spec.Kind of discovery jobs; frontier
// jobs have none.
const discoverKindName = "discover"

var (
	frontierKind = sweepKind{
		event:  func([]byte) string { return "repair" },
		spec:   frontierJobSpec,
		resume: resumeFrontier,
	}
	discoverKind = sweepKind{
		event:   discoverEvent,
		trailer: 1,
		spec:    discoverJobSpec,
		resume:  resumeDiscover,
	}
)

// kindOf returns a job's kind. Records without one predate discovery
// jobs: they are frontier sweeps.
func kindOf(j *jobs.Job) *sweepKind {
	if j.Kind == discoverKindName {
		return &discoverKind
	}
	return &frontierKind
}

// frontierJobSpec decodes a POST /v1/jobs body into the job's content
// address: FDs are re-formatted against the schema (so "A ,B->C" and
// "A,B->C" address the same job), the weighting name is validated and
// defaulted, and the dataset's current mutation generation is stamped in
// — so resubmitting a spec after a PATCH addresses a new job over the new
// rows instead of coalescing onto the stale frontier.
func frontierJobSpec(s *Server, body io.Reader) (*dataset, jobs.Spec, RepairRequest, error) {
	req, err := decodeStrict[RepairRequest](body)
	if err != nil {
		return nil, jobs.Spec{}, req, badRequest("decoding job request: %v", err)
	}
	d, err := s.find(req.Dataset)
	if err != nil {
		return nil, jobs.Spec{}, req, err
	}
	in := d.live.Rows()
	sigma, err := parseFDs(in.Schema, req.FDs)
	if err != nil {
		return nil, jobs.Spec{}, req, err
	}
	_, hi, err := tauRange(req.TauLow, req.TauHigh, nil)
	if err != nil {
		return nil, jobs.Spec{}, req, err
	}
	wname := req.Weights
	if wname == "" {
		wname = "distinct-count"
	}
	if _, err := weights.ByName(wname, nil); err != nil {
		return nil, jobs.Spec{}, req, badRequest("%v", err)
	}
	return d, jobs.Spec{
		Dataset:        d.name,
		FDs:            sigma.Format(in.Schema),
		TauLow:         req.TauLow,
		TauHigh:        hi,
		Weights:        wname,
		Seed:           req.Seed,
		IncludeChanges: req.IncludeChanges,
		Generation:     d.live.Generation(),
	}, req, nil
}

// discoverJobSpec decodes a POST /v1/jobs/discover body: the mining phase
// of /v1/discover, detached from the connection, addressed by
// discoverSpec.
func discoverJobSpec(s *Server, body io.Reader) (*dataset, jobs.Spec, RepairRequest, error) {
	req, err := decodeStrict[DiscoverRequest](body)
	if err != nil {
		return nil, jobs.Spec{}, RepairRequest{}, badRequest("decoding discover job request: %v", err)
	}
	d, err := s.find(req.Dataset)
	if err != nil {
		return nil, jobs.Spec{}, RepairRequest{}, err
	}
	if req.Mode != "" {
		return nil, jobs.Spec{}, RepairRequest{}, badRequest("discovery jobs run the mining phase only; mode must be empty")
	}
	spec, err := discoverSpec(d.name, d.live.Generation(), d.live.Rows().Schema, req)
	return d, spec, RepairRequest{}, err
}

// resumeFrontier runs a frontier job: the Repairer is re-derived from the
// job's canonical spec, and when the job holds checkpointed rows the
// sweep continues below the last one — the resume bound is that row's
// δP−1; see the package doc of internal/jobs for why that reproduces the
// uninterrupted stream exactly.
func resumeFrontier(ctx context.Context, s *Server, d *dataset, j *jobs.Job, knobs RepairRequest,
	in *relatrust.Instance, sess *relatrust.Session, emit func([]byte) error) (int, error) {
	sigma, err := relatrust.ParseFDs(in.Schema, j.FDs)
	if err != nil {
		return 0, err
	}
	knobs.Weights, knobs.Seed = j.Weights, j.Seed
	opt, err := s.options(d, knobs, sess)
	if err != nil {
		return 0, err
	}
	rp, err := relatrust.NewRepairer(in, sigma, opt)
	if err != nil {
		return 0, err
	}
	lo, hi := j.TauLow, j.TauHigh
	frames := j.Frames()
	if len(frames) > 0 {
		var last report.Row
		if err := json.Unmarshal(frames[len(frames)-1], &last); err != nil {
			return 0, fmt.Errorf("decoding checkpointed row: %w", err)
		}
		if hi = last.DeltaP - 1; hi < lo {
			// The checkpoints already hold the full frontier; the crash hit
			// between the last row and the completion record.
			return 0, nil
		}
	}
	return frontierSweep(ctx, in, rp, lo, hi, len(frames), j.IncludeChanges, emit)
}

// resumeDiscover runs a discovery job. Resume leans on determinism
// instead of a τ bound: a job holding k checkpointed frames re-runs the
// walk and skips the first k emissions, so the concatenation is
// byte-identical to an uninterrupted run. A log whose last frame is the
// sigma frame is already complete.
func resumeDiscover(ctx context.Context, s *Server, d *dataset, j *jobs.Job, _ RepairRequest,
	in *relatrust.Instance, sess *relatrust.Session, emit func([]byte) error) (int, error) {
	frames := j.Frames()
	if n := len(frames); n > 0 && discoverEvent(frames[n-1]) == "sigma" {
		return 0, nil // mining finished; the crash hit before the terminal record
	}
	dv, err := s.discoverer(d, j.Spec, in, sess)
	if err != nil {
		return 0, err
	}
	_, rows, err := discoverSweep(ctx, in, dv, len(frames), emit)
	return rows, err
}

// handleSubmitJob admits (or coalesces) a job of kind k. 201 with the job
// body when a sweep was started (new or resumed from a checkpoint), 200
// when an existing job answered the submission.
func (s *Server) handleSubmitJob(k *sweepKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		d, spec, knobs, err := k.spec(s, http.MaxBytesReader(w, r.Body, s.opt.MaxUploadBytes))
		if err != nil {
			writeError(w, err, nil)
			return
		}
		j, started, err := s.jobs.Submit(spec, s.jobStarter(k, d, knobs, false))
		if err != nil {
			writeAdmitError(w, d, err)
			return
		}
		status := http.StatusOK
		if started {
			status = http.StatusCreated
		}
		writeJSON(w, status, jobInfo(j.Status()))
	}
}

// jobStarter adapts a job of kind k over d to the manager's StartFunc:
// admission under the same caps as request sweeps (see admit for wait),
// then a sweep body that pins the dataset's snapshot and refuses to run
// if its generation no longer matches the job's — checkpointed rows of a
// pre-mutation frontier must never be continued over different data (the
// boot-resume path after a restart that followed a PATCH) — before it
// runs the kind's loop through the manager's checkpoint-then-publish
// emit.
func (s *Server) jobStarter(k *sweepKind, d *dataset, knobs RepairRequest, wait bool) jobs.StartFunc {
	return func(j *jobs.Job) (jobs.Sweep, func(), error) {
		release, err := s.admit(d, wait)
		if err != nil {
			return nil, nil, err
		}
		return func(ctx context.Context, emit func([]byte) error) error {
			_, err := s.runSweep(d, func() (int, error) {
				in, sess, gen := s.snapshotFor(d)
				if j.Generation != gen {
					return 0, fmt.Errorf("%w: job answers for generation %d, dataset is at %d",
						jobs.ErrDatasetMutated, j.Generation, gen)
				}
				return k.resume(ctx, s, d, j, knobs, in, sess, emit)
			}, "job", j.ID)
			return err
		}, release, nil
	}
}

// RecoverJobs rehydrates persisted jobs after Rehydrate: terminal jobs
// become streamable from their result logs, and records still "running"
// resume from their last checkpointed frame with the server's default
// engine knobs. Boot-time admission waits for a slot (per-job goroutine)
// instead of shedding — resumed work was already admitted once. Returns
// how many sweeps were resumed.
func (s *Server) RecoverJobs() (int, error) {
	return s.jobs.Recover(func(j *jobs.Job) (jobs.Sweep, func(), error) {
		d := s.lookup(j.Dataset)
		if d == nil {
			return nil, nil, fmt.Errorf("%w: dataset %q is not registered", jobs.ErrDatasetDeleted, j.Dataset)
		}
		return s.jobStarter(kindOf(j), d, RepairRequest{}, true)(j)
	})
}

func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	all := s.jobs.List()
	infos := make([]JobInfo, 0, len(all))
	for _, j := range all {
		infos = append(infos, jobInfo(j.Status()))
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobInfo `json:"jobs"`
	}{infos})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.Get(r.PathValue("id"))
	if j == nil {
		writeErrorCode(w, http.StatusNotFound, codeUnknownJob, "job %q is not known", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, jobInfo(j.Status()))
}

// handleDeleteJob cancels a running job (202; the cancelled state lands
// when its sweep unwinds) or removes a terminal one with its durable
// trace (204).
func (s *Server) handleDeleteJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	found, removed := s.jobs.Cancel(id)
	if !found {
		writeErrorCode(w, http.StatusNotFound, codeUnknownJob, "job %q is not known", id)
		return
	}
	if removed {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	j := s.jobs.Get(id)
	if j == nil { // removed by a concurrent delete
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusAccepted, jobInfo(j.Status()))
}

// handleJobStream attaches to a job's stream: frames [from, ...) replay
// from the checkpoint log, then the stream follows live until the job
// reaches a terminal state — completion ends the stream like a finished
// request sweep (EOF for NDJSON, "done" for SSE); failure and
// cancellation arrive as the same in-band error frames. A job interrupted
// by shutdown reports shutting_down: re-attach after the restart and the
// replay continues where it left off.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.Get(r.PathValue("id"))
	if j == nil {
		writeErrorCode(w, http.StatusNotFound, codeUnknownJob, "job %q is not known", r.PathValue("id"))
		return
	}
	k := kindOf(j)
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeErrorCode(w, http.StatusBadRequest, codeBadRequest, "from must be a non-negative row offset")
			return
		}
		from = v
	}
	st := newStream(w, r)
	i := from
	for {
		frames, status, wait := j.Next(i)
		for _, f := range frames {
			if err := st.write(k.event(f), f); err != nil {
				return // client gone; the job sweeps on regardless
			}
			i++
		}
		if len(frames) > 0 {
			continue // drain everything visible before deciding to wait
		}
		switch {
		case status.State == jobs.StateCompleted:
			st.done(i - k.trailer)
			return
		case status.State == jobs.StateFailed || status.State == jobs.StateCancelled:
			st.fail(ErrorBody{Error: ErrorDetail{Code: status.ErrorCode, Message: status.ErrorMessage}})
			return
		case status.Interrupted:
			st.fail(ErrorBody{Error: ErrorDetail{
				Code:    codeShuttingDown,
				Message: "server is shutting down; re-attach after restart to resume the stream",
			}})
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wait:
		}
	}
}
