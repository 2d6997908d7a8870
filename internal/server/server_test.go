package server

// End-to-end tests of the non-streaming endpoints: registry lifecycle,
// violations, sampling, budgeted repair, the structured error mapping, and
// /healthz + /statz. The streaming endpoint has its own suite in
// stream_test.go.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"relatrust"
)

// multiCSV violates City->ZIP and City->State several times, giving a
// frontier with multiple trust levels (same fixture as the facade tests).
const multiCSV = `City,ZIP,State
Springfield,62701,IL
Springfield,62701,IL
Springfield,97477,OR
Shelbyville,46176,IN
Shelbyville,46176,TN
`

const multiFDs = "City->ZIP; City->State"

// observer lets a test intercept sweep progress mid-flight; the zero
// value forwards nothing.
type observer struct {
	mu sync.Mutex
	fn func(dataset string, ev relatrust.ProgressEvent)
}

func (o *observer) set(fn func(string, relatrust.ProgressEvent)) {
	o.mu.Lock()
	o.fn = fn
	o.mu.Unlock()
}

func (o *observer) observe(name string, ev relatrust.ProgressEvent) {
	o.mu.Lock()
	fn := o.fn
	o.mu.Unlock()
	if fn != nil {
		fn(name, ev)
	}
}

// newTestServer starts a Server over httptest with the observer wired in.
func newTestServer(t *testing.T, opt Options) (*httptest.Server, *Server, *observer) {
	t.Helper()
	obs := &observer{}
	opt.Observe = obs.observe
	s := New(opt)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, s, obs
}

// postJSON posts v as JSON and returns the response.
func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decodeBody decodes the full response body into v and closes it.
func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding response body: %v", err)
	}
}

// registerCities registers the shared fixture dataset.
func registerCities(t *testing.T, base string) {
	t.Helper()
	resp := postJSON(t, base+"/v1/datasets", registerRequest{Name: "cities", CSV: multiCSV})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("register: status %d, body %s", resp.StatusCode, b)
	}
}

// wantErrorCode asserts the response is a structured error with the code
// and status, returning the detail for payload checks.
func wantErrorCode(t *testing.T, resp *http.Response, status int, code string) ErrorDetail {
	t.Helper()
	if resp.StatusCode != status {
		t.Errorf("status = %d, want %d", resp.StatusCode, status)
	}
	var body ErrorBody
	decodeBody(t, resp, &body)
	if body.Error.Code != code {
		t.Errorf("error code = %q, want %q", body.Error.Code, code)
	}
	if body.Error.Message == "" {
		t.Error("error message is empty")
	}
	return body.Error
}

func TestHealthz(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		OK bool `json:"ok"`
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	decodeBody(t, resp, &body)
	if !body.OK {
		t.Error("healthz not ok")
	}
}

func TestDatasetLifecycle(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	registerCities(t, ts.URL)

	// Duplicate registration conflicts.
	resp := postJSON(t, ts.URL+"/v1/datasets", registerRequest{Name: "cities", CSV: multiCSV})
	wantErrorCode(t, resp, http.StatusConflict, codeDatasetExists)

	// Malformed CSV and malformed JSON are distinct errors.
	resp = postJSON(t, ts.URL+"/v1/datasets", registerRequest{Name: "bad", CSV: "A,B\n1\n"})
	wantErrorCode(t, resp, http.StatusBadRequest, codeBadCSV)
	resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	wantErrorCode(t, resp, http.StatusBadRequest, codeBadRequest)
	// Concatenated documents are one malformed request, not a half-served
	// one (same contract on the repair endpoints via decodeRepairRequest).
	resp, err = http.Post(ts.URL+"/v1/datasets", "application/json",
		strings.NewReader(`{"name":"x","csv":"A\n1\n"}{"name":"y","csv":"A\n1\n"}`))
	if err != nil {
		t.Fatal(err)
	}
	wantErrorCode(t, resp, http.StatusBadRequest, codeBadRequest)
	resp = postJSON(t, ts.URL+"/v1/datasets", registerRequest{Name: "no spaces", CSV: multiCSV})
	wantErrorCode(t, resp, http.StatusBadRequest, codeBadRequest)

	// GET one and list.
	resp, err = http.Get(ts.URL + "/v1/datasets/cities")
	if err != nil {
		t.Fatal(err)
	}
	var info DatasetInfo
	decodeBody(t, resp, &info)
	if info.Name != "cities" || info.Tuples != 5 || len(info.Attributes) != 3 {
		t.Errorf("dataset info = %+v", info)
	}
	resp, err = http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	decodeBody(t, resp, &list)
	if len(list.Datasets) != 1 || list.Datasets[0].Name != "cities" {
		t.Errorf("list = %+v", list)
	}

	// Delete, then 404 on both GET and DELETE.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/cities", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/datasets/cities")
	if err != nil {
		t.Fatal(err)
	}
	wantErrorCode(t, resp, http.StatusNotFound, codeUnknownDataset)
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/cities", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wantErrorCode(t, resp, http.StatusNotFound, codeUnknownDataset)
}

func TestViolationsEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	registerCities(t, ts.URL)

	resp := postJSON(t, ts.URL+"/v1/violations", RepairRequest{Dataset: "cities", FDs: multiFDs})
	var body violationsResponse
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	decodeBody(t, resp, &body)
	if body.Satisfied {
		t.Error("fixture reported satisfied")
	}
	if body.Count == 0 || len(body.Violations) != body.Count {
		t.Errorf("count %d with %d violations", body.Count, len(body.Violations))
	}
	// The wire pairs match the in-process answer.
	in, err := relatrust.ReadCSV(strings.NewReader(multiCSV))
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := relatrust.ParseFDs(in.Schema, multiFDs)
	if err != nil {
		t.Fatal(err)
	}
	want := relatrust.Violations(in, sigma, 0)
	if len(want) != body.Count {
		t.Fatalf("wire reports %d violations, in-process %d", body.Count, len(want))
	}
	for i, v := range body.Violations {
		if v.T1 != want[i].T1 || v.T2 != want[i].T2 || v.FDIndex != want[i].FD {
			t.Errorf("violation %d: wire %+v, want %+v", i, v, want[i])
		}
		if v.FD != sigma[want[i].FD].Format(in.Schema) {
			t.Errorf("violation %d renders FD %q", i, v.FD)
		}
	}

	// Truncation: max=1 reports one pair and the flag.
	resp = postJSON(t, ts.URL+"/v1/violations", RepairRequest{Dataset: "cities", FDs: multiFDs, Max: 1})
	decodeBody(t, resp, &body)
	if body.Count != 1 || !body.Truncated {
		t.Errorf("max=1: count %d truncated %v", body.Count, body.Truncated)
	}

	// A satisfied FD set reports satisfied with zero pairs (ZIP->City
	// holds in the fixture).
	body = violationsResponse{}
	resp = postJSON(t, ts.URL+"/v1/violations", RepairRequest{Dataset: "cities", FDs: "ZIP->City"})
	decodeBody(t, resp, &body)
	if !body.Satisfied || body.Count != 0 {
		t.Errorf("satisfied FD: %+v", body)
	}

	// Error shapes. An empty FD spec fails at parse time, so the wire
	// reports bad_fds (the empty_fd_set sentinel is unreachable over
	// HTTP; its mapping is unit-tested in TestMapErrorSentinels).
	resp = postJSON(t, ts.URL+"/v1/violations", RepairRequest{Dataset: "nope", FDs: multiFDs})
	wantErrorCode(t, resp, http.StatusNotFound, codeUnknownDataset)
	resp = postJSON(t, ts.URL+"/v1/violations", RepairRequest{Dataset: "cities", FDs: "Nope->ZIP"})
	wantErrorCode(t, resp, http.StatusBadRequest, codeBadFDs)
	resp = postJSON(t, ts.URL+"/v1/violations", RepairRequest{Dataset: "cities", FDs: ""})
	wantErrorCode(t, resp, http.StatusBadRequest, codeBadFDs)
	resp = postJSON(t, ts.URL+"/v1/violations", RepairRequest{Dataset: "cities", FDs: multiFDs, Max: -1})
	wantErrorCode(t, resp, http.StatusBadRequest, codeBadRequest)
}

func TestBudgetEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	registerCities(t, ts.URL)

	// In-process oracle for the same request.
	in, err := relatrust.ReadCSV(strings.NewReader(multiCSV))
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := relatrust.ParseFDs(in.Schema, multiFDs)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := relatrust.NewRepairer(in, sigma, relatrust.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := rp.MaxBudget(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := rp.RepairWithBudget(context.Background(), dp)
	if err != nil {
		t.Fatal(err)
	}

	tau := dp
	resp := postJSON(t, ts.URL+"/v1/repair/budget", RepairRequest{
		Dataset: "cities", FDs: multiFDs, Tau: &tau, Seed: 3, IncludeChanges: true,
	})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var body struct {
		Repair frontierFrame `json:"repair"`
	}
	decodeBody(t, resp, &body)
	if body.Repair.Tau != want.Tau || body.Repair.CellChanges != want.Data.NumChanges() ||
		body.Repair.Sigma != want.Sigma.Format(in.Schema) || body.Repair.DeltaP != want.DeltaP {
		t.Errorf("wire repair %+v diverges from in-process %v", body.Repair, want)
	}
	if len(body.Repair.Changes) != want.Data.NumChanges() {
		t.Errorf("%d wire changes, want %d", len(body.Repair.Changes), want.Data.NumChanges())
	}
	for i, c := range body.Repair.Changes {
		ref := want.Data.Changed[i]
		if c.Tuple != ref.Tuple || c.Attr != in.Schema.Name(ref.Attr) ||
			c.Before != in.Tuples[ref.Tuple][ref.Attr].String() {
			t.Errorf("change %d = %+v, want cell %v", i, c, ref)
		}
	}

	// Missing and negative τ are request errors.
	resp = postJSON(t, ts.URL+"/v1/repair/budget", RepairRequest{Dataset: "cities", FDs: multiFDs})
	wantErrorCode(t, resp, http.StatusBadRequest, codeBadRequest)
	neg := -1
	resp = postJSON(t, ts.URL+"/v1/repair/budget", RepairRequest{Dataset: "cities", FDs: multiFDs, Tau: &neg})
	wantErrorCode(t, resp, http.StatusBadRequest, codeBadRequest)
}

// TestSentinelErrorMapping drives each facade sentinel through the HTTP
// surface and asserts the (status, code, payload) triple is distinct.
func TestSentinelErrorMapping(t *testing.T) {
	ts, srv, _ := newTestServer(t, Options{})
	registerCities(t, ts.URL)
	// A two-column dataset with an unextendable FD: τ=0 is infeasible.
	resp := postJSON(t, ts.URL+"/v1/datasets", registerRequest{Name: "two", CSV: "City,ZIP\nA,1\nA,2\n"})
	resp.Body.Close()

	zero := 0
	resp = postJSON(t, ts.URL+"/v1/repair/budget", RepairRequest{Dataset: "two", FDs: "City->ZIP", Tau: &zero})
	detail := wantErrorCode(t, resp, http.StatusConflict, codeNoRepairInBudget)
	if detail.Tau == nil || *detail.Tau != 0 {
		t.Errorf("no_repair_in_budget does not carry τ: %+v", detail)
	}

	// MaxVisited=1 with τ between the feasibility floor and δP aborts.
	in, err := relatrust.ReadCSV(strings.NewReader(multiCSV))
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := relatrust.ParseFDs(in.Schema, multiFDs)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := relatrust.NewRepairer(in, sigma, relatrust.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := rp.MaxBudget(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tau := dp - 1
	resp = postJSON(t, ts.URL+"/v1/repair/budget", RepairRequest{
		Dataset: "cities", FDs: multiFDs, Tau: &tau, MaxVisited: 1,
	})
	detail = wantErrorCode(t, resp, http.StatusServiceUnavailable, codeMaxVisited)
	if detail.Visited != 1 {
		t.Errorf("max_visited does not carry the visited count: %+v", detail)
	}
	// The aborted sweep is accounted as failed, not finished.
	if d := srv.lookup("cities").statz(); d.SweepsFailed != 1 || d.SweepsFinished != 0 {
		t.Errorf("aborted sweep counted as %+v", d)
	}

	// An empty FD spec is rejected at parse time — ErrEmptyFDSet itself
	// cannot reach the wire, but its mapping stays pinned below.
	resp = postJSON(t, ts.URL+"/v1/repair/budget", RepairRequest{Dataset: "cities", FDs: " ", Tau: &zero})
	wantErrorCode(t, resp, http.StatusBadRequest, codeBadFDs)

	// Empty instance: a header-only dataset validates per request.
	resp = postJSON(t, ts.URL+"/v1/datasets", registerRequest{Name: "empty", CSV: "A,B\n"})
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/repair/budget", RepairRequest{Dataset: "empty", FDs: "A->B", Tau: &zero})
	wantErrorCode(t, resp, http.StatusUnprocessableEntity, codeEmptyInstance)
}

// TestMapErrorSentinels covers the sentinels the HTTP surface cannot
// reach (FDs parse against the dataset schema, so an out-of-schema FD and
// the empty set fail earlier as bad_fds): the mapping itself must still be
// correct for embedded users of the package.
func TestMapErrorSentinels(t *testing.T) {
	in, err := relatrust.ReadCSV(strings.NewReader("A,B\n1,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := relatrust.NewSchema("A", "B", "C", "D")
	if err != nil {
		t.Fatal(err)
	}
	bad, err := relatrust.ParseFD(wide, "C->D")
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := relatrust.NewRepairer(in, relatrust.FDSet{bad}, relatrust.Options{})
	if rerr == nil {
		t.Fatal("expected schema mismatch")
	}
	status, body := mapError(rerr, wide)
	if status != http.StatusUnprocessableEntity || body.Error.Code != codeSchemaMismatch {
		t.Errorf("mapped to (%d, %q)", status, body.Error.Code)
	}
	if body.Error.FD != "C->D" {
		t.Errorf("mismatch renders FD %q", body.Error.FD)
	}

	if status, body := mapError(relatrust.ErrEmptyFDSet, nil); status != http.StatusBadRequest || body.Error.Code != codeEmptyFDSet {
		t.Errorf("empty FD set mapped to (%d, %q)", status, body.Error.Code)
	}

	// Cancellation and deadline map to their own distinct pairs.
	if status, body := mapError(context.Canceled, nil); status != statusClientClosedRequest || body.Error.Code != codeCancelled {
		t.Errorf("canceled mapped to (%d, %q)", status, body.Error.Code)
	}
	if status, body := mapError(context.DeadlineExceeded, nil); status != http.StatusGatewayTimeout || body.Error.Code != codeDeadline {
		t.Errorf("deadline mapped to (%d, %q)", status, body.Error.Code)
	}
	if status, body := mapError(errors.New("boom"), nil); status != http.StatusInternalServerError || body.Error.Code != codeInternal {
		t.Errorf("unknown error mapped to (%d, %q)", status, body.Error.Code)
	}
}

func TestSampleEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	registerCities(t, ts.URL)

	resp := postJSON(t, ts.URL+"/v1/sample", RepairRequest{
		Dataset: "cities", FDs: multiFDs, K: 3, Seed: 5, IncludeChanges: true,
	})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var body sampleResponse
	decodeBody(t, resp, &body)
	if len(body.Samples) == 0 {
		t.Fatal("no samples")
	}
	for i, s := range body.Samples {
		if s.CellChanges == 0 || len(s.Changes) != s.CellChanges {
			t.Errorf("sample %d: %d cell changes, %d listed", i, s.CellChanges, len(s.Changes))
		}
	}

	// The wire samples match the in-process draw with the same seed.
	in, err := relatrust.ReadCSV(strings.NewReader(multiCSV))
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := relatrust.ParseFDs(in.Schema, multiFDs)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := relatrust.NewRepairer(in, sigma, relatrust.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rp.Sample(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(body.Samples) {
		t.Fatalf("wire drew %d samples, in-process %d", len(body.Samples), len(want))
	}
	for i := range want {
		if want[i].NumChanges() != body.Samples[i].CellChanges {
			t.Errorf("sample %d: wire %d changes, in-process %d",
				i, body.Samples[i].CellChanges, want[i].NumChanges())
		}
	}

	// k is required.
	resp = postJSON(t, ts.URL+"/v1/sample", RepairRequest{Dataset: "cities", FDs: multiFDs})
	wantErrorCode(t, resp, http.StatusBadRequest, codeBadRequest)
}

func TestStatz(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	registerCities(t, ts.URL)

	// One budget call and one sweep, then read the counters.
	tau := 100
	resp := postJSON(t, ts.URL+"/v1/repair/budget", RepairRequest{Dataset: "cities", FDs: multiFDs, Tau: &tau})
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/repair", RepairRequest{Dataset: "cities", FDs: multiFDs})
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var statz Statz
	decodeBody(t, resp, &statz)
	if statz.Sessions != 1 || len(statz.Datasets) != 1 {
		t.Fatalf("statz = %+v", statz)
	}
	d := statz.Datasets[0]
	if d.Name != "cities" || d.Tuples != 5 {
		t.Errorf("dataset block = %+v", d)
	}
	if d.SweepsStarted != 2 || d.SweepsFinished != 2 || d.SweepsCancelled != 0 {
		t.Errorf("sweep counters = %+v", d)
	}
	if d.RowsStreamed < 3 { // 1 budget repair + a ≥2-point frontier
		t.Errorf("rows streamed = %d", d.RowsStreamed)
	}
	if d.ActiveSweeps != 0 {
		t.Errorf("active sweeps = %d at rest", d.ActiveSweeps)
	}
	// The shared session served both requests: analyses were handed out
	// repeatedly but the cluster build ran once per FD set.
	if d.SessionAcquires < 2 || d.SessionBuilds < 1 || d.SessionBuilds >= d.SessionAcquires {
		t.Errorf("session counters: acquires %d builds %d", d.SessionAcquires, d.SessionBuilds)
	}
}
