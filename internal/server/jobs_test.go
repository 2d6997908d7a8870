package server

// End-to-end tests of the durable job tier: lifecycle, byte-identity of
// job streams with /v1/repair, coalescing of identical submissions,
// restart-resume, the dataset-deletion cascade, and both eviction knobs.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"relatrust/internal/store"
)

// newJobServer builds a Server over a snapshot store in dataDir and a job
// store in jobsDir (either may be empty for the in-memory variant), the
// same wiring cmd/relatrustd does. Restart tests call it twice over the
// same directories.
func newJobServer(t *testing.T, dataDir, jobsDir string, opt Options) (*httptest.Server, *Server, *observer) {
	t.Helper()
	obs := &observer{}
	opt.Observe = obs.observe
	if opt.Logger == nil {
		opt.Logger = quietLogger()
	}
	if dataDir != "" {
		st, err := store.Open(dataDir, store.Options{Logger: quietLogger()})
		if err != nil {
			t.Fatal(err)
		}
		opt.Store = st
	}
	if jobsDir != "" {
		js, err := store.OpenJobs(jobsDir, store.Options{Logger: quietLogger()})
		if err != nil {
			t.Fatal(err)
		}
		opt.JobStore = js
	}
	srv := New(opt)
	if opt.Store != nil {
		if _, err := srv.Rehydrate(); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv, obs
}

// submitJob posts the request to /v1/jobs and decodes the job body.
func submitJob(t *testing.T, base string, req RepairRequest) (JobInfo, int) {
	t.Helper()
	resp := postJSON(t, base+"/v1/jobs", req)
	status := resp.StatusCode
	if status != http.StatusOK && status != http.StatusCreated {
		t.Fatalf("submit: status %d", status)
	}
	var info JobInfo
	decodeBody(t, resp, &info)
	return info, status
}

// getJob fetches the job body (the job must exist).
func getJob(t *testing.T, base, id string) JobInfo {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("get job %s: status %d", id, resp.StatusCode)
	}
	var info JobInfo
	decodeBody(t, resp, &info)
	return info
}

// waitJob polls until pred accepts the job's state.
func waitJob(t *testing.T, base, id string, pred func(JobInfo) bool, label string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		info := getJob(t, base, id)
		if pred(info) {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s: %+v", id, label, info)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// readJobStream attaches to the job's NDJSON stream and splits the result
// into data rows and the terminal in-band error (nil on clean EOF).
func readJobStream(t *testing.T, base, id string, from int) ([]string, *ErrorDetail) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/stream?from=%d", base, id, from))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream %s: status %d", id, resp.StatusCode)
	}
	var rows []string
	var terminal *ErrorDetail
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		var eb ErrorBody
		if json.Unmarshal([]byte(line), &eb) == nil && eb.Error.Code != "" {
			if terminal != nil {
				t.Fatalf("stream %s: two error frames", id)
			}
			terminal = &eb.Error
			continue
		}
		if terminal != nil {
			t.Fatalf("stream %s: data row after the error frame", id)
		}
		rows = append(rows, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows, terminal
}

func jobRequest(seed int64) RepairRequest {
	return RepairRequest{Dataset: "paper", FDs: paperFDs, Seed: seed}
}

// TestJobLifecycleStreamMatchesRepair: a job's replayed stream is
// byte-identical to what /v1/repair streams for the same spec, offsets
// skip replayed rows, and the job shows up in the list and the statz
// counters.
func TestJobLifecycleStreamMatchesRepair(t *testing.T) {
	want := frontierFrames(t, 9)
	ts, srv, _ := newTestServer(t, Options{})
	registerPaper(t, ts.URL)

	info, status := submitJob(t, ts.URL, jobRequest(9))
	if status != http.StatusCreated {
		t.Fatalf("fresh submit: status %d, want 201", status)
	}
	if info.Dataset != "paper" || info.FDs != paperFDs || info.TauHigh != -1 || info.Weights != "distinct-count" {
		t.Fatalf("job body %+v", info)
	}
	done := waitJob(t, ts.URL, info.ID, func(i JobInfo) bool { return i.State == "completed" }, "completed")
	if done.Rows != len(want) {
		t.Fatalf("completed with %d rows, want %d", done.Rows, len(want))
	}

	rows, terminal := readJobStream(t, ts.URL, info.ID, 0)
	if terminal != nil {
		t.Fatalf("completed stream ended with error %+v", terminal)
	}
	if len(rows) != len(want) {
		t.Fatalf("streamed %d rows, want %d", len(rows), len(want))
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Errorf("row %d:\n  job    %s\n  repair %s", i, rows[i], want[i])
		}
	}
	// Offsets skip replayed rows; an offset past the end replays nothing.
	tail, _ := readJobStream(t, ts.URL, info.ID, len(want)-1)
	if len(tail) != 1 || tail[0] != want[len(want)-1] {
		t.Errorf("from=%d replayed %q", len(want)-1, tail)
	}
	if none, _ := readJobStream(t, ts.URL, info.ID, 100); len(none) != 0 {
		t.Errorf("from=100 replayed %d rows", len(none))
	}

	var list struct {
		Jobs []JobInfo `json:"jobs"`
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != info.ID {
		t.Errorf("job list %+v", list.Jobs)
	}
	if st := srv.statzBody().Jobs; st.Completed != 1 || st.Active != 0 {
		t.Errorf("jobs statz %+v", st)
	}
}

// TestJobSubmitValidation: malformed submissions are rejected with the
// same structured errors as /v1/repair.
func TestJobSubmitValidation(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	registerPaper(t, ts.URL)

	resp := postJSON(t, ts.URL+"/v1/jobs", RepairRequest{Dataset: "nope", FDs: paperFDs})
	wantErrorCode(t, resp, http.StatusNotFound, codeUnknownDataset)
	resp = postJSON(t, ts.URL+"/v1/jobs", RepairRequest{Dataset: "paper", FDs: "A->Nope"})
	wantErrorCode(t, resp, http.StatusBadRequest, codeBadFDs)
	resp = postJSON(t, ts.URL+"/v1/jobs", RepairRequest{Dataset: "paper", FDs: paperFDs, TauLow: 3, TauHigh: ptr(1)})
	wantErrorCode(t, resp, http.StatusBadRequest, codeBadRequest)
	resp = postJSON(t, ts.URL+"/v1/jobs", RepairRequest{Dataset: "paper", FDs: paperFDs, Weights: "nope"})
	wantErrorCode(t, resp, http.StatusBadRequest, codeBadRequest)

	// Bad stream offsets and unknown job ids are structured errors too.
	info, _ := submitJob(t, ts.URL, jobRequest(9))
	resp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID + "/stream?from=-1")
	if err != nil {
		t.Fatal(err)
	}
	wantErrorCode(t, resp, http.StatusBadRequest, codeBadRequest)
	resp, err = http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	wantErrorCode(t, resp, http.StatusNotFound, codeUnknownJob)
}

// TestJobCoalescingOneSweep is the dedupe acceptance test: concurrent
// identical submissions while the sweep runs — and a resubmission after it
// completes — are all answered by the same job, with exactly one admitted
// sweep and one session build.
func TestJobCoalescingOneSweep(t *testing.T) {
	ts, srv, obs := newTestServer(t, Options{})
	registerPaper(t, ts.URL)

	reached, release := gateAtSecondTau(obs)
	defer obs.set(nil)
	first, status := submitJob(t, ts.URL, jobRequest(9))
	if status != http.StatusCreated {
		t.Fatalf("first submit: status %d", status)
	}
	<-reached

	// The sweep is provably mid-flight; identical submissions coalesce
	// without a second admission.
	const dupes = 4
	type res struct {
		info   JobInfo
		status int
	}
	results := make(chan res, dupes)
	for i := 0; i < dupes; i++ {
		go func() {
			info, status := submitJob(t, ts.URL, jobRequest(9))
			results <- res{info, status}
		}()
	}
	for i := 0; i < dupes; i++ {
		r := <-results
		if r.status != http.StatusOK || r.info.ID != first.ID {
			t.Errorf("duplicate submit: status %d id %s, want 200 %s", r.status, r.info.ID, first.ID)
		}
	}
	close(release)
	waitJob(t, ts.URL, first.ID, func(i JobInfo) bool { return i.State == "completed" }, "completed")
	oneSweepBuilds := srv.lookup("paper").statz().SessionBuilds

	// Completed frontiers keep coalescing: served from the result log.
	again, status := submitJob(t, ts.URL, jobRequest(9))
	if status != http.StatusOK || again.ID != first.ID || again.State != "completed" {
		t.Fatalf("post-completion submit: status %d %+v", status, again)
	}

	d := srv.lookup("paper").statz()
	if d.SweepsStarted != 1 {
		t.Errorf("sweeps started = %d, want 1 (coalescing must not admit again)", d.SweepsStarted)
	}
	if d.SessionBuilds != oneSweepBuilds {
		t.Errorf("session builds grew from %d to %d on coalesced submissions", oneSweepBuilds, d.SessionBuilds)
	}
	if got := srv.statzBody().Jobs.Coalesced; got != dupes+1 {
		t.Errorf("coalesced = %d, want %d", got, dupes+1)
	}
}

// TestJobStreamFollowsLive: a follower attached mid-sweep sees replayed
// rows and then live rows as their τ finishes, ending at EOF with the
// exact /v1/repair bytes.
func TestJobStreamFollowsLive(t *testing.T) {
	want := frontierFrames(t, 9)
	ts, _, obs := newTestServer(t, Options{})
	registerPaper(t, ts.URL)

	reached, release := gateAtSecondTau(obs)
	defer obs.set(nil)
	info, _ := submitJob(t, ts.URL, jobRequest(9))
	<-reached

	resp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first row while the sweep is gated: %v", sc.Err())
	}
	if got := sc.Text(); got != want[0] {
		t.Fatalf("live first row:\n  got  %s\n  want %s", got, want[0])
	}
	// The sweep is still gated: the first row arrived before completion.
	close(release)
	got := []string{want[0]}
	for sc.Scan() {
		got = append(got, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("followed %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d:\n  got  %s\n  want %s", i, got[i], want[i])
		}
	}
}

// TestJobShedsNewButCoalescesDuplicates: with the per-dataset cap
// saturated by a running job, a different submission sheds 429 while an
// identical one still coalesces (it needs no slot).
func TestJobShedsNewButCoalescesDuplicates(t *testing.T) {
	ts, _, obs := newTestServer(t, Options{MaxSweepsPerDataset: 1})
	registerPaper(t, ts.URL)

	reached, release := gateAtSecondTau(obs)
	defer obs.set(nil)
	first, _ := submitJob(t, ts.URL, jobRequest(9))
	<-reached

	resp := postJSON(t, ts.URL+"/v1/jobs", jobRequest(10))
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed job response missing Retry-After")
	}
	wantErrorCode(t, resp, http.StatusTooManyRequests, codeOverloaded)

	dup, status := submitJob(t, ts.URL, jobRequest(9))
	if status != http.StatusOK || dup.ID != first.ID {
		t.Errorf("duplicate under saturation: status %d id %s", status, dup.ID)
	}
	close(release)
	waitJob(t, ts.URL, first.ID, func(i JobInfo) bool { return i.State == "completed" }, "completed")
}

// TestJobDeleteSemantics: DELETE cancels a running job (202, then the
// cancelled state lands and followers get the in-band error), removes a
// terminal job (204), and unknown ids 404.
func TestJobDeleteSemantics(t *testing.T) {
	ts, _, obs := newTestServer(t, Options{})
	registerPaper(t, ts.URL)

	reached, release := gateAtSecondTau(obs)
	defer obs.set(nil)
	info, _ := submitJob(t, ts.URL, jobRequest(9))
	<-reached

	del := func(id string) *http.Response {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := del(info.ID)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE running job: status %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()
	close(release) // let the cancelled sweep unwind through the gate
	cancelled := waitJob(t, ts.URL, info.ID, func(i JobInfo) bool { return i.State == "cancelled" }, "cancelled")
	if cancelled.Error == nil || cancelled.Error.Code != "cancelled" {
		t.Fatalf("cancelled job error %+v", cancelled.Error)
	}
	rows, terminal := readJobStream(t, ts.URL, info.ID, 0)
	if terminal == nil || terminal.Code != "cancelled" {
		t.Fatalf("cancelled stream terminal %+v after %d rows", terminal, len(rows))
	}

	resp = del(info.ID)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE terminal job: status %d, want 204", resp.StatusCode)
	}
	resp.Body.Close()
	wantErrorCode(t, del(info.ID), http.StatusNotFound, codeUnknownJob)
}

// TestDatasetDeleteCancelsJobs: deleting a dataset cancels its running
// jobs with the structured dataset_deleted error, frees their slots, and
// drops them from the registry so the id does not resurrect.
func TestDatasetDeleteCancelsJobs(t *testing.T) {
	ts, srv, obs := newTestServer(t, Options{MaxSweepsPerDataset: 1})
	registerPaper(t, ts.URL)

	reached, release := gateAtSecondTau(obs)
	defer obs.set(nil)
	info, _ := submitJob(t, ts.URL, jobRequest(9))
	<-reached

	// Attach a follower and read the first row before deleting, so the
	// stream is provably live when the cascade fires.
	stream, err := http.Get(ts.URL + "/v1/jobs/" + info.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	sc := bufio.NewScanner(stream.Body)
	if !sc.Scan() {
		t.Fatalf("no first row while the sweep is gated: %v", sc.Err())
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/paper", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE dataset: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	close(release)

	// The follower drains any remaining rows and ends on the structured
	// dataset_deleted frame.
	var terminal *ErrorDetail
	for sc.Scan() {
		var eb ErrorBody
		if json.Unmarshal(sc.Bytes(), &eb) == nil && eb.Error.Code != "" {
			terminal = &eb.Error
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if terminal == nil || terminal.Code != codeDatasetDeleted {
		t.Fatalf("follower terminal %+v, want %s", terminal, codeDatasetDeleted)
	}
	// The job drops from the registry once the sweep unwinds, and its
	// admission slot frees with it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID)
		if err != nil {
			t.Fatal(err)
		}
		gone := resp.StatusCode == http.StatusNotFound
		resp.Body.Close()
		if gone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dataset-deleted job still resolvable")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.statzBody().Jobs; got.Active != 0 {
		t.Errorf("jobs active = %d after cascade", got.Active)
	}
}

// TestWarmSessionEviction: with MaxWarmSessions=1 the least recently swept
// dataset loses its session (counted), and rebuilds it on its next sweep.
func TestWarmSessionEviction(t *testing.T) {
	want := frontierFrames(t, 9)
	ts, srv, _ := newTestServer(t, Options{MaxWarmSessions: 1})
	registerPaper(t, ts.URL)
	registerCities(t, ts.URL)

	assertFullFrontier(t, http.DefaultClient, ts.URL, want, "warm paper")
	body := srv.statzBody()
	if body.WarmSessions != 1 || body.SessionsEvicted != 0 {
		t.Fatalf("after one sweep: warm=%d evicted=%d", body.WarmSessions, body.SessionsEvicted)
	}

	// Sweeping cities evicts paper's session (LRU, cap 1).
	resp := postJSON(t, ts.URL+"/v1/repair", RepairRequest{Dataset: "cities", FDs: multiFDs, Seed: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cities sweep: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	body = srv.statzBody()
	if body.WarmSessions != 1 || body.SessionsEvicted != 1 {
		t.Fatalf("after second dataset: warm=%d evicted=%d, want 1/1", body.WarmSessions, body.SessionsEvicted)
	}

	// Paper sweeps again identically — through a rebuilt session, whose
	// engine builds the one root of the sweep's FD set.
	assertFullFrontier(t, http.DefaultClient, ts.URL, want, "rebuilt paper")
	if body := srv.statzBody(); body.SessionsEvicted != 2 {
		t.Errorf("after the rebuild: evicted=%d, want 2 (cities lost its session in turn)", body.SessionsEvicted)
	}
	if d := srv.lookup("paper").statz(); d.SessionBuilds != 1 {
		t.Errorf("paper session builds = %d, want 1 (one root on the rebuilt engine)", d.SessionBuilds)
	}
}

// TestJobResultsEviction: MaxJobResultsBytes drops the oldest terminal
// job (memory and disk) while the newest stays streamable.
func TestJobResultsEviction(t *testing.T) {
	jobsDir := t.TempDir()
	ts, srv, _ := newJobServer(t, "", jobsDir, Options{MaxJobResultsBytes: 1})
	registerPaper(t, ts.URL)

	first, _ := submitJob(t, ts.URL, jobRequest(9))
	waitJob(t, ts.URL, first.ID, func(i JobInfo) bool { return i.State == "completed" }, "completed")
	// The sole terminal job is over the cap but never evicted: the most
	// recently finished frontier stays streamable.
	if _, terminal := readJobStream(t, ts.URL, first.ID, 0); terminal != nil {
		t.Fatalf("sole job evicted: %+v", terminal)
	}

	second, _ := submitJob(t, ts.URL, jobRequest(10))
	if second.ID == first.ID {
		t.Fatal("distinct seeds coalesced")
	}
	waitJob(t, ts.URL, second.ID, func(i JobInfo) bool { return i.State == "completed" }, "completed")

	resp, err := http.Get(ts.URL + "/v1/jobs/" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	wantErrorCode(t, resp, http.StatusNotFound, codeUnknownJob)
	if got := srv.statzBody().Jobs.ResultsEvictedBytes; got <= 0 {
		t.Errorf("results_evicted_bytes = %d, want > 0", got)
	}
	// Disk agrees: only the surviving job's files remain.
	js, err := store.OpenJobs(jobsDir, store.Options{Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := js.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].Record.ID != second.ID {
		t.Fatalf("durable store holds %d jobs, want only %s", len(recovered), second.ID)
	}
}

// TestJobResumesAcrossRestart is the restart acceptance test at the
// handler level: a job interrupted by shutdown mid-sweep keeps its durable
// record "running"; a second server over the same directories resumes it
// from the last checkpointed τ, and the resumed job's full stream is
// byte-identical to an uninterrupted run.
func TestJobResumesAcrossRestart(t *testing.T) {
	want := frontierFrames(t, 9)
	dataDir, jobsDir := t.TempDir(), t.TempDir()

	ts1, srv1, obs1 := newJobServer(t, dataDir, jobsDir, Options{})
	registerPaper(t, ts1.URL)
	reached, release := gateAtSecondTau(obs1)
	info, _ := submitJob(t, ts1.URL, jobRequest(9))
	<-reached
	// At the gate at least one row is checkpointed and the sweep is
	// provably unfinished. Interrupt it: the durable record stays
	// "running".
	partial := getJob(t, ts1.URL, info.ID)
	if partial.Rows == 0 || partial.Rows >= len(want) {
		t.Fatalf("gated job checkpointed %d rows, want mid-sweep", partial.Rows)
	}
	srv1.BeginShutdown()
	close(release)
	obs1.set(nil)
	// Followers are told to re-attach after the restart; the frame also
	// confirms the interrupted sweep fully unwound.
	rows, terminal := readJobStream(t, ts1.URL, info.ID, 0)
	if terminal == nil || terminal.Code != codeShuttingDown {
		t.Fatalf("interrupted stream terminal %+v after %d rows", terminal, len(rows))
	}
	ts1.Close()
	srv1.Close()

	// "Reboot" over the same directories, the way cmd/relatrustd does.
	ts2, srv2, _ := newJobServer(t, dataDir, jobsDir, Options{})
	n, err := srv2.RecoverJobs()
	if err != nil || n != 1 {
		t.Fatalf("RecoverJobs = %d, %v, want 1 resumed", n, err)
	}
	done := waitJob(t, ts2.URL, info.ID, func(i JobInfo) bool { return i.State == "completed" }, "completed")
	if done.Rows != len(want) {
		t.Fatalf("resumed job finished with %d rows, want %d", done.Rows, len(want))
	}
	got, terminal := readJobStream(t, ts2.URL, info.ID, 0)
	if terminal != nil {
		t.Fatalf("resumed stream terminal %+v", terminal)
	}
	if len(got) != len(want) {
		t.Fatalf("resumed stream has %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d:\n  resumed %s\n  want    %s", i, got[i], want[i])
		}
	}
	if stz := srv2.statzBody().Jobs; stz.Resumed != 1 {
		t.Errorf("resumed counter = %d, want 1", stz.Resumed)
	}

	// A third boot resumes nothing: the record is terminal, but the
	// frontier replays from the log without re-running the sweep.
	ts3, srv3, _ := newJobServer(t, dataDir, jobsDir, Options{})
	n, err = srv3.RecoverJobs()
	if err != nil || n != 0 {
		t.Fatalf("third boot RecoverJobs = %d, %v, want 0", n, err)
	}
	replayed, terminal := readJobStream(t, ts3.URL, info.ID, 0)
	if terminal != nil || len(replayed) != len(want) {
		t.Fatalf("third-boot replay: %d rows, terminal %+v", len(replayed), terminal)
	}
	for i := range want {
		if replayed[i] != want[i] {
			t.Errorf("third-boot row %d differs", i)
		}
	}
	if d := srv3.lookup("paper").statz(); d.SweepsStarted != 0 {
		t.Errorf("third boot started %d sweeps, want 0 (replay only)", d.SweepsStarted)
	}
}
