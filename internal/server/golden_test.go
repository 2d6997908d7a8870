package server

// Golden-file tests for the wire formats: the NDJSON and SSE frontier
// streams and the structured error bodies. A diff in testdata/ means a
// serialization change a client would see — make it deliberately, with
// -update.

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("%s drifted from golden file (intentional changes: re-run with -update):\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

// goldenServer registers the deterministic fixtures used by every golden
// request.
func goldenServer(t *testing.T) *httptestServerHandle {
	t.Helper()
	ts, _, _ := newTestServer(t, Options{})
	registerPaper(t, ts.URL)
	resp := postJSON(t, ts.URL+"/v1/datasets", registerRequest{Name: "two", CSV: "City,ZIP\nA,1\nA,2\n"})
	resp.Body.Close()
	return &httptestServerHandle{URL: ts.URL}
}

// httptestServerHandle keeps the golden helpers free of the httptest
// import juggling; only the base URL matters here.
type httptestServerHandle struct{ URL string }

// body performs the request and returns the raw response body.
func goldenBody(t *testing.T, method, url string, reqBody any, accept string) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(reqBody)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, got
}

func TestGoldenFrontierNDJSON(t *testing.T) {
	h := goldenServer(t)
	status, got := goldenBody(t, http.MethodPost, h.URL+"/v1/repair",
		RepairRequest{Dataset: "paper", FDs: paperFDs, Seed: 1}, "")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	checkGolden(t, "frontier.ndjson.golden", got)
}

func TestGoldenFrontierNDJSONWithChanges(t *testing.T) {
	h := goldenServer(t)
	status, got := goldenBody(t, http.MethodPost, h.URL+"/v1/repair",
		RepairRequest{Dataset: "paper", FDs: paperFDs, Seed: 1, IncludeChanges: true}, "")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	checkGolden(t, "frontier.changes.ndjson.golden", got)
}

func TestGoldenFrontierSSE(t *testing.T) {
	h := goldenServer(t)
	status, got := goldenBody(t, http.MethodPost, h.URL+"/v1/repair",
		RepairRequest{Dataset: "paper", FDs: paperFDs, Seed: 1}, "text/event-stream")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	checkGolden(t, "frontier.sse.golden", got)
}

func TestGoldenDiscoverNDJSON(t *testing.T) {
	h := goldenServer(t)
	status, got := goldenBody(t, http.MethodPost, h.URL+"/v1/discover",
		DiscoverRequest{Dataset: "paper", MaxLHS: 2}, "")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	checkGolden(t, "discover.ndjson.golden", got)
}

func TestGoldenDiscoverSSE(t *testing.T) {
	h := goldenServer(t)
	status, got := goldenBody(t, http.MethodPost, h.URL+"/v1/discover",
		DiscoverRequest{Dataset: "paper", MaxLHS: 2}, "text/event-stream")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	checkGolden(t, "discover.sse.golden", got)
}

func TestGoldenDiscoverThenRepairNDJSON(t *testing.T) {
	h := goldenServer(t)
	status, got := goldenBody(t, http.MethodPost, h.URL+"/v1/discover",
		DiscoverRequest{Dataset: "paper", MaxLHS: 2, MaxError: 0.3, Mode: "discover_then_repair", Seed: 1}, "")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	checkGolden(t, "discover.then_repair.ndjson.golden", got)
}

func TestGoldenBudgetRepair(t *testing.T) {
	h := goldenServer(t)
	tau := 2
	status, got := goldenBody(t, http.MethodPost, h.URL+"/v1/repair/budget",
		RepairRequest{Dataset: "paper", FDs: paperFDs, Tau: &tau, Seed: 1, IncludeChanges: true}, "")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	checkGolden(t, "budget.json.golden", got)
}

// TestGoldenErrorBodies pins the structured error envelope for the error
// shapes a client must dispatch on.
func TestGoldenErrorBodies(t *testing.T) {
	h := goldenServer(t)
	zero, three := 0, 3
	cases := []struct {
		name   string
		url    string
		body   RepairRequest
		status int
	}{
		{"error.unknown_dataset.json.golden", "/v1/repair/budget",
			RepairRequest{Dataset: "nope", FDs: paperFDs, Tau: &zero}, http.StatusNotFound},
		{"error.bad_fds.json.golden", "/v1/repair/budget",
			RepairRequest{Dataset: "paper", FDs: "A->", Tau: &zero}, http.StatusBadRequest},
		{"error.no_repair_in_budget.json.golden", "/v1/repair/budget",
			RepairRequest{Dataset: "two", FDs: "City->ZIP", Tau: &zero}, http.StatusConflict},
		// τ=3 sits between the feasibility floor and δP=4, so the search
		// must actually expand states and the one-visit cap fires.
		{"error.max_visited.json.golden", "/v1/repair/budget",
			RepairRequest{Dataset: "paper", FDs: paperFDs, Tau: &three, MaxVisited: 1}, http.StatusServiceUnavailable},
	}
	for _, c := range cases {
		status, got := goldenBody(t, http.MethodPost, h.URL+c.url, c.body, "")
		if status != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, status, c.status, got)
			continue
		}
		checkGolden(t, c.name, got)
	}
}

// goldenJob submits a job to the golden server, waits for it to complete,
// and returns its id.
func goldenJob(t *testing.T, base, path string, body any) string {
	t.Helper()
	status, got := goldenBody(t, http.MethodPost, base+path, body, "")
	if status != http.StatusCreated {
		t.Fatalf("submit %s: status %d: %s", path, status, got)
	}
	var info JobInfo
	if err := json.Unmarshal(got, &info); err != nil {
		t.Fatal(err)
	}
	waitJob(t, base, info.ID, func(i JobInfo) bool { return i.State == "completed" }, "completed")
	return info.ID
}

// TestGoldenJobInfo pins the GET /v1/jobs/{id} body of one job of each
// kind: the content address, the spec fields in wire order, the state and
// the row count.
func TestGoldenJobInfo(t *testing.T) {
	h := goldenServer(t)
	jobs := map[string]string{
		"job.repair.json.golden": goldenJob(t, h.URL, "/v1/jobs",
			RepairRequest{Dataset: "paper", FDs: paperFDs, TauLow: 1, Seed: 1, IncludeChanges: true}),
		"job.discover.json.golden": goldenJob(t, h.URL, "/v1/jobs/discover",
			DiscoverRequest{Dataset: "paper", MaxLHS: 2, MaxError: 0.25, Attrs: "A,B,C,D"}),
	}
	for name, id := range jobs {
		status, got := goldenBody(t, http.MethodGet, h.URL+"/v1/jobs/"+id, nil, "")
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, status, got)
		}
		checkGolden(t, name, got)
	}
}

// sseEvents splits an SSE body into its events, dropping the terminal
// "done" event (TestJobStreamDoneRows checks it).
func sseEvents(body []byte) []string {
	var out []string
	for _, ev := range strings.SplitAfter(string(body), "\n\n") {
		if ev != "" && !strings.HasPrefix(ev, "event: done\n") {
			out = append(out, ev)
		}
	}
	return out
}

// TestGoldenJobStreamSSE: a job followed over SSE labels its frames like
// the request stream of its kind — "repair" for a frontier job, "fd" and
// "sigma" for a discovery job — so the frames equal the request streams'
// golden frames byte for byte.
func TestGoldenJobStreamSSE(t *testing.T) {
	h := goldenServer(t)
	cases := []struct {
		golden, path string
		body         any
	}{
		{"frontier.sse.golden", "/v1/jobs", RepairRequest{Dataset: "paper", FDs: paperFDs, Seed: 1}},
		{"discover.sse.golden", "/v1/jobs/discover", DiscoverRequest{Dataset: "paper", MaxLHS: 2}},
	}
	for _, c := range cases {
		id := goldenJob(t, h.URL, c.path, c.body)
		status, got := goldenBody(t, http.MethodGet, h.URL+"/v1/jobs/"+id+"/stream", nil, "text/event-stream")
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.golden, status, got)
		}
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if g, w := strings.Join(sseEvents(got), ""), strings.Join(sseEvents(want), ""); g != w {
			t.Errorf("job stream frames differ from %s:\ngot:\n%s\nwant:\n%s", c.golden, g, w)
		}
	}
}

// TestJobStreamDoneRows: a completed job's SSE "done" event reports the
// row count the request stream of the same spec reports — the mined FDs
// for a discovery job (not its sigma frame), the frontier rows for a
// repair job — whether the follower replays from the start or re-attaches
// mid-log.
func TestJobStreamDoneRows(t *testing.T) {
	h := goldenServer(t)
	cases := []struct {
		reqPath, jobPath string
		body             any
	}{
		{"/v1/repair", "/v1/jobs", RepairRequest{Dataset: "paper", FDs: paperFDs, Seed: 1}},
		{"/v1/discover", "/v1/jobs/discover", DiscoverRequest{Dataset: "paper", MaxLHS: 2}},
	}
	for _, c := range cases {
		status, body := goldenBody(t, http.MethodPost, h.URL+c.reqPath, c.body, "text/event-stream")
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.reqPath, status, body)
		}
		want := doneEvent(t, body)
		id := goldenJob(t, h.URL, c.jobPath, c.body)
		for _, from := range []string{"", "?from=2"} {
			status, got := goldenBody(t, http.MethodGet, h.URL+"/v1/jobs/"+id+"/stream"+from, nil, "text/event-stream")
			if status != http.StatusOK {
				t.Fatalf("%s job stream%s: status %d: %s", c.jobPath, from, status, got)
			}
			if g := doneEvent(t, got); g != want {
				t.Errorf("%s job stream%s: done event %q, %s sends %q", c.jobPath, from, g, c.reqPath, want)
			}
		}
	}
}

// doneEvent returns an SSE body's terminal "done" event.
func doneEvent(t *testing.T, body []byte) string {
	t.Helper()
	events := strings.SplitAfter(string(body), "\n\n")
	for i := len(events) - 1; i >= 0; i-- {
		if strings.HasPrefix(events[i], "event: done\n") {
			return events[i]
		}
	}
	t.Fatalf("no done event in %s", body)
	return ""
}
