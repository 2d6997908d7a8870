package main

// Tests for the CLI flag plumbing through the testable run() entry point:
// exit codes, stdout/stderr content, and the search knobs (workers,
// best-first, progress) actually reaching the facade.

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relatrust"
)

const citiesCSV = `City,ZIP,State
Springfield,62701,IL
Springfield,62701,IL
Springfield,97477,OR
Shelbyville,46176,IN
Shelbyville,46176,TN
`

const citiesFDs = "City->ZIP; City->State"

// writeFixture drops the fixture CSV into a temp dir and returns its path.
func writeFixture(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cities.csv")
	if err := os.WriteFile(path, []byte(citiesCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCLI invokes run() and returns (exit code, stdout, stderr).
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestUsageErrors(t *testing.T) {
	if code, _, stderr := runCLI(t); code != 2 || !strings.Contains(stderr, "-data and -fds are required") {
		t.Errorf("no args: code %d, stderr %q", code, stderr)
	}
	if code, _, _ := runCLI(t, "-data", "x.csv"); code != 2 {
		t.Errorf("missing -fds: code %d", code)
	}
	if code, _, stderr := runCLI(t, "-nope"); code != 2 || !strings.Contains(stderr, "flag provided but not defined") {
		t.Errorf("unknown flag: code %d, stderr %q", code, stderr)
	}
	// Asking for help is a success, not a usage error.
	if code, _, stderr := runCLI(t, "-h"); code != 0 || !strings.Contains(stderr, "-data") {
		t.Errorf("-h: code %d, stderr %q", code, stderr)
	}
}

func TestRuntimeErrors(t *testing.T) {
	data := writeFixture(t)
	if code, _, stderr := runCLI(t, "-data", filepath.Join(t.TempDir(), "missing.csv"), "-fds", citiesFDs); code != 1 || stderr == "" {
		t.Errorf("missing file: code %d, stderr %q", code, stderr)
	}
	if code, _, stderr := runCLI(t, "-data", data, "-fds", citiesFDs, "-weights", "nope"); code != 1 ||
		!strings.Contains(stderr, "unknown weighting") {
		t.Errorf("bad weighting: code %d, stderr %q", code, stderr)
	}
	if code, _, stderr := runCLI(t, "-data", data, "-fds", "Nope->ZIP"); code != 1 || stderr == "" {
		t.Errorf("bad FD: code %d, stderr %q", code, stderr)
	}
}

func TestSweepOutput(t *testing.T) {
	data := writeFixture(t)
	code, stdout, stderr := runCLI(t, "-data", data, "-fds", citiesFDs, "-seed", "1")
	if code != 0 {
		t.Fatalf("code %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "5 tuples × 3 attributes") {
		t.Errorf("missing shape banner:\n%s", stdout)
	}
	if !strings.Contains(stdout, "δP(Σ, I) =") {
		t.Errorf("missing δP line:\n%s", stdout)
	}
	if !strings.Contains(stdout, "FD modification") {
		t.Errorf("missing spectrum header:\n%s", stdout)
	}
	// The frontier has at least the pure-data and one relaxation level.
	rows := 0
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "1 ") || strings.HasPrefix(line, "2 ") {
			rows++
		}
	}
	if rows < 2 {
		t.Errorf("fewer than 2 frontier rows:\n%s", stdout)
	}
}

// TestSearchKnobs: every engine knob must plumb through to the facade and
// leave the printed spectrum identical — the inline and parallel worker
// counts and best-first search are all pinned to produce the same
// frontier on this fixture.
func TestSearchKnobs(t *testing.T) {
	data := writeFixture(t)
	base := []string{"-data", data, "-fds", citiesFDs, "-seed", "1"}
	_, want, _ := runCLI(t, base...)
	variants := [][]string{
		{"-workers", "1"},
		{"-workers", "4"},
		{"-best-first"},
	}
	for _, extra := range variants {
		code, got, stderr := runCLI(t, append(append([]string{}, base...), extra...)...)
		if code != 0 {
			t.Errorf("%v: code %d, stderr %q", extra, code, stderr)
			continue
		}
		if got != want {
			t.Errorf("%v changed the printed spectrum:\n%s\nvs default:\n%s", extra, got, want)
		}
	}
}

func TestProgressFlag(t *testing.T) {
	data := writeFixture(t)
	code, _, stderr := runCLI(t, "-data", data, "-fds", citiesFDs, "-progress")
	if code != 0 {
		t.Fatalf("code %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"progress: sweep started", "progress: τ=", "progress: sweep finished"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
	// Without the flag, stderr stays silent.
	if code, _, stderr := runCLI(t, "-data", data, "-fds", citiesFDs); code != 0 || stderr != "" {
		t.Errorf("no -progress: code %d, stderr %q", code, stderr)
	}
}

func TestSingleTauAndInfeasible(t *testing.T) {
	data := writeFixture(t)
	code, stdout, _ := runCLI(t, "-data", data, "-fds", citiesFDs, "-tau", "100")
	if code != 0 || !strings.Contains(stdout, "FD modification") {
		t.Errorf("tau=100: code %d\n%s", code, stdout)
	}

	// An unextendable two-attribute schema at τ=0 has no repair; the CLI
	// reports it as a message, not a failure.
	two := filepath.Join(t.TempDir(), "two.csv")
	if err := os.WriteFile(two, []byte("City,ZIP\nA,1\nA,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ = runCLI(t, "-data", two, "-fds", "City->ZIP", "-tau", "0")
	if code != 0 || !strings.Contains(stdout, "no FD relaxation fits τ=0") {
		t.Errorf("infeasible τ: code %d\n%s", code, stdout)
	}
}

func TestShowCellsAndOutputCSV(t *testing.T) {
	data := writeFixture(t)
	out := filepath.Join(t.TempDir(), "repaired.csv")
	code, stdout, stderr := runCLI(t, "-data", data, "-fds", citiesFDs, "-seed", "1",
		"-show-cells", "-o", out)
	if code != 0 {
		t.Fatalf("code %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "changes of repair 1:") || !strings.Contains(stdout, "→") {
		t.Errorf("missing cell listing:\n%s", stdout)
	}
	if !strings.Contains(stdout, "wrote repaired data") {
		t.Errorf("missing -o confirmation:\n%s", stdout)
	}
	// The written CSV re-reads with the fixture's shape and satisfies the
	// last repair's relaxed FDs trivially (it is grounded).
	repaired, err := relatrust.ReadCSVFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if repaired.N() != 5 || repaired.Schema.Width() != 3 {
		t.Errorf("repaired CSV shape %dx%d", repaired.N(), repaired.Schema.Width())
	}
}

func TestSatisfiedInstance(t *testing.T) {
	clean := filepath.Join(t.TempDir(), "clean.csv")
	if err := os.WriteFile(clean, []byte("A,B\n1,1\n2,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ := runCLI(t, "-data", clean, "-fds", "A->B")
	if code != 0 || !strings.Contains(stdout, "already satisfies every FD") {
		t.Errorf("satisfied: code %d\n%s", code, stdout)
	}
}

func TestFDsFromFile(t *testing.T) {
	data := writeFixture(t)
	fdFile := filepath.Join(t.TempDir(), "fds.txt")
	if err := os.WriteFile(fdFile, []byte(citiesFDs+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI(t, "-data", data, "-fds", "@"+fdFile)
	if code != 0 || !strings.Contains(stdout, "FD modification") {
		t.Errorf("@file FDs: code %d, stderr %q\n%s", code, stderr, stdout)
	}
}

func TestCancelledContext(t *testing.T) {
	data := writeFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr strings.Builder
	code := run(ctx, []string{"-data", data, "-fds", citiesFDs}, &stdout, &stderr)
	if code != 1 {
		t.Errorf("pre-cancelled run: code %d, stdout %q stderr %q", code, stdout.String(), stderr.String())
	}
}
