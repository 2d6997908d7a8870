package server

// Crash-safety tests: panic recovery on every sweep path, durable
// registration with restart recovery, load shedding under a saturated
// registry, and graceful shutdown. The fault-injection build
// (-tags faultinject) adds I/O-level fault tests in faultinject_test.go.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"relatrust"

	"relatrust/internal/store"
	"relatrust/internal/testkit"
)

// quietLogger drops panic stacks during the panic tests so expected
// failures do not spray the test log, while still exercising the logging
// path.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// TestPanicPreCommitStructured500: an Observe callback that panics at the
// very start of a budget sweep unwinds on the handler goroutine before any
// response bytes are written. The client gets a structured 500
// internal_panic, the process stays up, and the dataset's shared session
// serves an identical follow-up sweep.
func TestPanicPreCommitStructured500(t *testing.T) {
	want := frontierFrames(t, 9)
	ts, srv, obs := newTestServer(t, Options{Logger: quietLogger()})
	registerPaper(t, ts.URL)
	client := ts.Client()

	// Warm up so the goroutine baseline reflects an idle-but-warm server.
	resp := postJSON(t, ts.URL+"/v1/repair/budget", RepairRequest{Dataset: "paper", FDs: paperFDs, Tau: ptr(2), Seed: 9})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	client.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	obs.set(func(_ string, ev relatrust.ProgressEvent) {
		if ev.Kind == relatrust.ProgressSweepStarted {
			panic("injected: observer exploded at sweep start")
		}
	})
	resp = postJSON(t, ts.URL+"/v1/repair/budget", RepairRequest{Dataset: "paper", FDs: paperFDs, Tau: ptr(2), Seed: 9})
	wantErrorCode(t, resp, http.StatusInternalServerError, codeInternalPanic)
	obs.set(nil)

	d := srv.lookup("paper").statz()
	if d.SweepsFailed != 1 {
		t.Errorf("sweeps_failed = %d, want 1", d.SweepsFailed)
	}
	if got := srv.panics.Load(); got != 1 {
		t.Errorf("panics recovered = %d, want 1", got)
	}
	if d.ActiveSweeps != 0 {
		t.Errorf("active sweeps = %d after the panic; the slot leaked", d.ActiveSweeps)
	}
	client.CloseIdleConnections()
	testkit.WaitGoroutineBaseline(t, baseline)

	// The shared session is unharmed: the full frontier still streams
	// byte-identically.
	assertFullFrontier(t, client, ts.URL, want, "post-panic")
}

// TestPanicMidStreamInBand: a panic after the 200 is committed and rows
// are in flight cannot become a status code; it must arrive as the
// stream's in-band error frame, with the session unharmed.
func TestPanicMidStreamInBand(t *testing.T) {
	want := frontierFrames(t, 9)
	ts, srv, obs := newTestServer(t, Options{Logger: quietLogger()})
	registerPaper(t, ts.URL)
	client := ts.Client()

	// Warm up, as above.
	assertFullFrontier(t, client, ts.URL, want, "warm-up")
	client.CloseIdleConnections()
	baseline := runtime.NumGoroutine()
	warmBuilds := srv.lookup("paper").statz().SessionBuilds

	// Panic on the sweeping goroutine at the second finished trust level —
	// by then the first row has provably been flushed to the client.
	var once sync.Once
	finished := 0
	obs.set(func(_ string, ev relatrust.ProgressEvent) {
		if ev.Kind != relatrust.ProgressTauFinished {
			return
		}
		finished++
		if finished == 2 {
			once.Do(func() { panic("injected: observer exploded mid-stream") })
		}
	})
	resp, err := client.Post(ts.URL+"/v1/repair", "application/json", repairBody(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (the panic hits after commit)", resp.StatusCode)
	}
	var dataRows int
	var errFrame *ErrorDetail
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var frame struct {
			Error *ErrorDetail `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &frame); err != nil {
			t.Fatalf("non-JSON frame %q: %v", sc.Text(), err)
		}
		if frame.Error != nil {
			errFrame = frame.Error
			continue
		}
		dataRows++
	}
	resp.Body.Close()
	obs.set(nil)
	if errFrame == nil {
		t.Fatal("stream ended without an in-band error frame")
	}
	if errFrame.Code != codeInternalPanic {
		t.Errorf("in-band error code = %q, want %q", errFrame.Code, codeInternalPanic)
	}
	if dataRows < 1 {
		t.Error("no data rows before the in-band panic frame")
	}
	if dataRows >= len(want) {
		t.Errorf("all %d rows streamed; the panic should have cut the sweep short", dataRows)
	}

	d := srv.lookup("paper").statz()
	if d.SweepsFailed != 1 {
		t.Errorf("sweeps_failed = %d, want 1", d.SweepsFailed)
	}
	client.CloseIdleConnections()
	testkit.WaitGoroutineBaseline(t, baseline)

	// Identical follow-up over the same shared session, with no rebuild:
	// the engine's cached roots survived the panic.
	assertFullFrontier(t, client, ts.URL, want, "post-panic")
	d = srv.lookup("paper").statz()
	if d.SessionBuilds != warmBuilds {
		t.Errorf("session builds = %d after mid-stream panic, want %d (no rebuild)", d.SessionBuilds, warmBuilds)
	}
}

// assertFullFrontier streams the fixture sweep and requires the exact
// oracle frames.
func assertFullFrontier(t *testing.T, client *http.Client, base string, want []string, label string) {
	t.Helper()
	resp, err := client.Post(base+"/v1/repair", "application/json", repairBody(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status = %d", label, resp.StatusCode)
	}
	var got []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		got = append(got, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: streamed %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s row %d:\n  streamed %s\n  want     %s", label, i, got[i], want[i])
		}
	}
}

func ptr[T any](v T) *T { return &v }

// newDurableServer builds a Server over a snapshot store in dir.
func newDurableServer(t *testing.T, dir string) (*httptest.Server, *Server, *observer) {
	t.Helper()
	st, err := store.Open(dir, store.Options{Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	obs := &observer{}
	srv := New(Options{Store: st, Observe: obs.observe, Logger: quietLogger()})
	if _, err := srv.Rehydrate(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv, obs
}

// TestRestartRecoversMidStream is the kill-and-restart e2e at the handler
// level: a dataset is registered durably, a streaming sweep over it is
// abandoned mid-flight (the "crash"), a second server boots from the same
// directory, and the recovered dataset serves a frontier byte-identical
// to a fresh in-process sweep — without the client ever re-uploading.
func TestRestartRecoversMidStream(t *testing.T) {
	want := frontierFrames(t, 9)
	dir := t.TempDir()

	ts1, _, obs1 := newDurableServer(t, dir)
	registerPaper(t, ts1.URL)

	// Park a sweep mid-stream, then sever the client — the first server's
	// useful life ends with a stream in flight, like a crash would.
	reached, release := gateAtSecondTau(obs1)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts1.URL+"/v1/repair", repairBody(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ts1.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("reading first streamed row: %v", err)
	}
	select {
	case <-reached:
	case <-time.After(5 * time.Second):
		t.Fatal("sweep never reached the gate")
	}
	cancel()
	resp.Body.Close()
	close(release)
	obs1.set(nil)

	// Second boot over the same directory: the registry rehydrates from
	// the snapshot, codes and all, and the frontier is exactly the fresh
	// sweep's.
	ts2, srv2, _ := newDurableServer(t, dir)
	var listed struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	resp, err = http.Get(ts2.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &listed)
	if len(listed.Datasets) != 1 || listed.Datasets[0].Name != "paper" {
		t.Fatalf("rehydrated registry = %+v, want just %q", listed.Datasets, "paper")
	}
	assertFullFrontier(t, ts2.Client(), ts2.URL, want, "recovered")

	st := srv2.statzBody()
	if st.Store == nil || st.Store.Loads != 1 {
		t.Errorf("store statz after rehydration = %+v", st.Store)
	}
}

// TestDeleteRemovesSnapshot: deletion writes through, so a deleted dataset
// stays deleted across a restart.
func TestDeleteRemovesSnapshot(t *testing.T) {
	dir := t.TempDir()
	ts1, _, _ := newDurableServer(t, dir)
	registerPaper(t, ts1.URL)

	req, err := http.NewRequest(http.MethodDelete, ts1.URL+"/v1/datasets/paper", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}

	_, srv2, _ := newDurableServer(t, dir)
	srv2.mu.RLock()
	n := len(srv2.datasets)
	srv2.mu.RUnlock()
	if n != 0 {
		t.Errorf("deleted dataset resurfaced after restart (%d registered)", n)
	}
}

// TestRehydrateSkipsCorrupt: a snapshot damaged on disk is quarantined at
// boot; the healthy dataset loads and serves.
func TestRehydrateSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	ts1, _, _ := newDurableServer(t, dir)
	registerPaper(t, ts1.URL)
	resp := postJSON(t, ts1.URL+"/v1/datasets", registerRequest{Name: "doomed", CSV: multiCSV})
	resp.Body.Close()

	corruptSnapshot(t, dir, "doomed")

	ts2, srv2, _ := newDurableServer(t, dir)
	if d := srv2.lookup("doomed"); d != nil {
		t.Error("corrupt dataset rehydrated anyway")
	}
	if d := srv2.lookup("paper"); d == nil {
		t.Fatal("healthy dataset missing after rehydration")
	}
	st := srv2.statzBody()
	if st.Store == nil || st.Store.Quarantined != 1 {
		t.Errorf("store statz = %+v, want 1 quarantined", st.Store)
	}
	assertFullFrontier(t, ts2.Client(), ts2.URL, frontierFrames(t, 9), "post-quarantine")
}

// corruptSnapshot flips one payload byte of the dataset's snapshot file.
func corruptSnapshot(t *testing.T, dir, name string) {
	t.Helper()
	path := filepath.Join(dir, name+".snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x5a
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownDrainsInFlight: after BeginShutdown, new sweeps get 503
// shutting_down while the in-flight stream finishes inside the drain
// deadline; a drain cut short by its context reports the deadline.
func TestShutdownDrainsInFlight(t *testing.T) {
	want := frontierFrames(t, 9)
	ts, srv, obs := newTestServer(t, Options{})
	registerPaper(t, ts.URL)

	reached, release := gateAtSecondTau(obs)
	defer obs.set(nil)

	resp1, err := http.Post(ts.URL+"/v1/repair", "application/json", repairBody(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	defer resp1.Body.Close()
	select {
	case <-reached:
	case <-time.After(5 * time.Second):
		t.Fatal("sweep never reached the gate")
	}

	srv.BeginShutdown()

	// New sweeps are refused outright — before touching the semaphores.
	resp2, err := http.Post(ts.URL+"/v1/repair", "application/json", repairBody(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	wantErrorCode(t, resp2, http.StatusServiceUnavailable, codeShuttingDown)

	// A drain bounded tighter than the gated sweep reports its deadline.
	shortCtx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	if err := srv.Drain(shortCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("short drain = %v, want deadline exceeded", err)
	}
	cancel()

	// Release the gate: the in-flight stream completes in full and the
	// drain goes clean.
	close(release)
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain after release: %v", err)
	}
	var rows int
	sc := bufio.NewScanner(resp1.Body)
	for sc.Scan() {
		rows++
	}
	if rows != len(want) {
		t.Errorf("draining stream delivered %d rows, want %d", rows, len(want))
	}
	srv.Close()
	if d := srv.lookup("paper"); d != nil {
		t.Error("registry not empty after Close")
	}
}

// TestMetricsGolden freezes the clock, runs one deterministic sweep, and
// pins the full Prometheus exposition output.
func TestMetricsGolden(t *testing.T) {
	checkGolden(t, "metrics.golden", scrapeMetricsFixture(t))
}

// TestMetricsTotalsAreCounters: the exposition format reserves the _total
// suffix for counters, so every exposed series named *_total must be
// typed counter, and every other series gauge.
func TestMetricsTotalsAreCounters(t *testing.T) {
	types := map[string]string{}
	totals := 0
	for _, line := range strings.Split(string(scrapeMetricsFixture(t)), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		name, _, _ = strings.Cut(name, "{")
		want := "gauge"
		if strings.HasSuffix(name, "_total") {
			want = "counter"
			totals++
		}
		if types[name] != want {
			t.Errorf("%s is typed %q, want %q", name, types[name], want)
		}
	}
	if totals == 0 {
		t.Fatal("no *_total series exposed")
	}
}

// scrapeMetricsFixture returns the /metrics body of a server with a store,
// two datasets, a frozen clock and one finished sweep.
func scrapeMetricsFixture(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Store: st, Logger: quietLogger()})
	srv.now = func() time.Time { return srv.start.Add(90 * time.Second) }
	ts := httptest.NewServer(srv)
	defer ts.Close()

	registerPaper(t, ts.URL)
	resp := postJSON(t, ts.URL+"/v1/datasets", registerRequest{Name: "two", CSV: multiCSV})
	resp.Body.Close()

	// One finished single-worker sweep gives stable nonzero counters (the
	// parallel cover fan-out count varies with GOMAXPROCS; workers=1 does
	// not fan out).
	raw, err := json.Marshal(RepairRequest{Dataset: "paper", FDs: paperFDs, Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/repair", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	return body
}
