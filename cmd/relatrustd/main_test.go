package main

// Smoke tests for the daemon's run() plumbing: flag errors, preload
// failures, and a full start → serve → graceful-shutdown cycle against a
// real socket.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlagErrors(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run(context.Background(), []string{"-nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag: code %d", code)
	}
	// The mmap load path is gone; its flag is an unknown flag like any other.
	if code := run(context.Background(), []string{"-mmap-snapshots"}, &stdout, &stderr); code != 2 {
		t.Errorf("-mmap-snapshots: code %d", code)
	}
	stderr.Reset()
	if code := run(context.Background(), []string{"-dataset", "missing-equals"}, &stdout, &stderr); code != 2 ||
		!strings.Contains(stderr.String(), "name=path.csv") {
		t.Errorf("malformed -dataset: code %d, stderr %q", code, stderr.String())
	}
	stderr.Reset()
	if code := run(context.Background(), []string{"-h"}, &stdout, &stderr); code != 0 ||
		!strings.Contains(stderr.String(), "-addr") {
		t.Errorf("-h: code %d, stderr %q", code, stderr.String())
	}
}

func TestPreloadErrors(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run(context.Background(),
		[]string{"-addr", "127.0.0.1:0", "-dataset", "x=" + filepath.Join(t.TempDir(), "missing.csv")},
		&stdout, &stderr)
	if code != 1 || stderr.Len() == 0 {
		t.Errorf("missing preload file: code %d, stderr %q", code, stderr.String())
	}
}

// TestServeAndShutdown boots the daemon with a preloaded dataset on an
// ephemeral port, streams one frontier over the socket, and shuts it down
// via context cancellation (the SIGINT path).
func TestServeAndShutdown(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "paper.csv")
	if err := os.WriteFile(csvPath, []byte("A,B,C,D\n1,1,1,1\n1,2,1,3\n2,2,1,1\n2,3,4,3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Reserve a port, free it, and hand it to the daemon: ephemeral but
	// known ahead of ListenAndServe.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var stdout, stderr safeBuilder
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-addr", addr, "-dataset", "paper=" + csvPath}, &stdout, &stderr)
	}()

	// Wait for the listener, then stream a frontier.
	base := "http://" + addr
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := http.Get(base + "/healthz"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up; stderr %q", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	body, err := json.Marshal(map[string]any{"dataset": "paper", "fds": "A->B; C->D"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/repair", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"error"`) {
			t.Fatalf("stream error: %s", sc.Text())
		}
		rows++
	}
	resp.Body.Close()
	if rows < 2 {
		t.Errorf("streamed %d rows", rows)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("shutdown exit code %d, stderr %q", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if out := stdout.String(); !strings.Contains(out, "preloaded dataset \"paper\"") ||
		!strings.Contains(out, "shut down") {
		t.Errorf("stdout %q", out)
	}
}

// bootDaemon starts run() on a fresh ephemeral port and waits for the
// listener. It returns the base URL and a stop function that cancels the
// daemon's context and reports the exit code (or -1 on a hung shutdown).
func bootDaemon(t *testing.T, stdout, stderr *safeBuilder, extraArgs ...string) (base string, stop func() int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", addr}, extraArgs...), stdout, stderr)
	}()
	t.Cleanup(cancel)

	base = "http://" + addr
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := http.Get(base + "/healthz"); err == nil {
			break
		}
		select {
		case code := <-done:
			t.Fatalf("daemon exited early with code %d; stderr %q", code, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up; stderr %q", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	return base, func() int {
		cancel()
		select {
		case code := <-done:
			return code
		case <-time.After(15 * time.Second):
			return -1
		}
	}
}

// streamRows posts a frontier request and returns the raw frame lines,
// failing the test on any in-band error frame.
func streamRows(t *testing.T, base string) []string {
	t.Helper()
	body, err := json.Marshal(map[string]any{"dataset": "paper", "fds": "A->B; C->D"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/repair", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var rows []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"error"`) {
			t.Fatalf("stream error: %s", sc.Text())
		}
		rows = append(rows, sc.Text())
	}
	return rows
}

// TestRestartRecovery is the durability e2e at the daemon level: register a
// dataset over HTTP against a -data-dir daemon, stop the process, boot a
// fresh one on the same directory, and assert the rehydrated dataset serves
// a byte-identical repair frontier — with a colliding -dataset preload
// skipped in favour of the persisted copy.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(t.TempDir(), "paper.csv")
	csv := "A,B,C,D\n1,1,1,1\n1,2,1,3\n2,2,1,1\n2,3,4,3\n"
	if err := os.WriteFile(csvPath, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}

	var out1, err1 safeBuilder
	base1, stop1 := bootDaemon(t, &out1, &err1, "-data-dir", dir)
	body, err := json.Marshal(map[string]any{"name": "paper", "csv": csv})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base1+"/v1/datasets", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status = %d, want 201", resp.StatusCode)
	}
	want := streamRows(t, base1)
	if len(want) < 2 {
		t.Fatalf("first daemon streamed %d rows", len(want))
	}
	if code := stop1(); code != 0 {
		t.Fatalf("first daemon exit code %d, stderr %q", code, err1.String())
	}

	var out2, err2 safeBuilder
	base2, stop2 := bootDaemon(t, &out2, &err2,
		"-data-dir", dir, "-dataset", "paper="+csvPath)
	got := streamRows(t, base2)
	if len(got) != len(want) {
		t.Fatalf("recovered frontier has %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d differs after restart:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	if code := stop2(); code != 0 {
		t.Fatalf("second daemon exit code %d, stderr %q", code, err2.String())
	}
	if out := out2.String(); !strings.Contains(out, "rehydrated 1 dataset(s)") ||
		!strings.Contains(out, `dataset "paper" already persisted; skipping preload`) {
		t.Errorf("second boot stdout %q", out)
	}
}

// safeBuilder is a strings.Builder safe for the cross-goroutine use above.
type safeBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *safeBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *safeBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
