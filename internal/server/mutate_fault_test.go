//go:build faultinject

package server

// Fault-injection tests for the PATCH durability ordering (go test -tags
// faultinject). A batch writes the generation sidecar first and the
// snapshot second; a failure at either write answers 500 storage and
// leaves the live table as it was. What a reboot then finds on disk is
// what the ordering promises: never post-batch rows under the pre-batch
// generation.

import (
	"errors"
	"fmt"
	"net/http"
	"testing"

	"relatrust/internal/faultinject"
)

// liveState is the served dataset's generation and rows.
func liveState(t *testing.T, srv *Server) (int64, string) {
	t.Helper()
	d := srv.lookup("paper")
	if d == nil {
		t.Fatal("dataset paper not registered")
	}
	return d.live.Generation(), fmt.Sprint(d.live.Rows().Tuples)
}

// insertBatch adds one row: a batch that changes both the rows and the
// generation.
func insertBatch() []mutateOp {
	return []mutateOp{{Op: "insert", Values: vals("7", "7", "7", "7")}}
}

// TestFaultGenerationSidecarWriteFails: a sidecar write failure aborts the
// batch before anything of it reaches disk — 500 storage, the live table
// unchanged, and a reboot serves the pre-batch generation and rows.
func TestFaultGenerationSidecarWriteFails(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dataDir := t.TempDir()
	ts1, srv1, _ := newJobServer(t, dataDir, "", Options{})
	registerPaper(t, ts1.URL)
	mustPatch(t, ts1.URL, "paper", paperBatch())
	gen, rows := liveState(t, srv1)

	faultinject.Set(faultinject.StoreGenerationWrite, func() error {
		return errors.New("injected: sidecar unwritable")
	})
	resp := patchRows(t, ts1.URL, "paper", mutateRequest{Ops: insertBatch()})
	wantErrorCode(t, resp, http.StatusInternalServerError, codeStorage)
	if g, r := liveState(t, srv1); g != gen || r != rows {
		t.Fatalf("failed batch changed the live table: generation %d→%d, rows %s→%s", gen, g, rows, r)
	}
	faultinject.Reset()
	ts1.Close()
	srv1.Close()

	_, srv2, _ := newJobServer(t, dataDir, "", Options{})
	if g, r := liveState(t, srv2); g != gen || r != rows {
		t.Fatalf("reboot serves generation %d rows %s, want the pre-batch %d %s", g, r, gen, rows)
	}
}

// TestFaultSnapshotWriteAfterSidecar: a snapshot write failure after the
// sidecar has landed answers 500 and leaves the live table unchanged. The
// reboot then finds generation N+1 over the pre-batch rows — the
// direction the ordering allows — so a job recorded at generation N fails
// with dataset_mutated instead of resuming over rows it never saw.
func TestFaultSnapshotWriteAfterSidecar(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dataDir, jobsDir := t.TempDir(), t.TempDir()
	ts1, srv1, obs1 := newJobServer(t, dataDir, jobsDir, Options{})
	registerPaper(t, ts1.URL)
	mustPatch(t, ts1.URL, "paper", paperBatch())
	gen, rows := liveState(t, srv1)

	// A job at generation N, left running by the shutdown below.
	reached, release := gateAtSecondTau(obs1)
	info, _ := submitJob(t, ts1.URL, jobRequest(9))
	<-reached
	if info.Generation != gen {
		t.Fatalf("job generation = %d, want %d", info.Generation, gen)
	}

	faultinject.Set(faultinject.StoreWrite, func() error {
		return errors.New("injected: snapshot unwritable")
	})
	resp := patchRows(t, ts1.URL, "paper", mutateRequest{Ops: insertBatch()})
	wantErrorCode(t, resp, http.StatusInternalServerError, codeStorage)
	if g, r := liveState(t, srv1); g != gen || r != rows {
		t.Fatalf("failed batch changed the live table: generation %d→%d, rows %s→%s", gen, g, rows, r)
	}
	faultinject.Reset()

	srv1.BeginShutdown()
	close(release)
	obs1.set(nil)
	if _, terminal := readJobStream(t, ts1.URL, info.ID, 0); terminal == nil {
		t.Fatal("interrupted job stream ended cleanly")
	}
	ts1.Close()
	srv1.Close()

	ts2, srv2, _ := newJobServer(t, dataDir, jobsDir, Options{})
	if g, r := liveState(t, srv2); g != gen+1 || r != rows {
		t.Fatalf("reboot serves generation %d rows %s, want generation %d over the pre-batch rows %s", g, r, gen+1, rows)
	}
	if _, err := srv2.RecoverJobs(); err != nil {
		t.Fatal(err)
	}
	failed := waitJob(t, ts2.URL, info.ID, func(i JobInfo) bool { return i.State == "failed" }, "failed")
	if failed.Error == nil || failed.Error.Code != codeDatasetMutated {
		t.Fatalf("recovered job error = %+v, want %s", failed.Error, codeDatasetMutated)
	}
}
