package main

// Golden tests for the CLI's printed output in both mining modes. A diff
// in testdata/ means a change a user of the CLI would see — make it
// deliberately, with -update.

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relatrust"
	"relatrust/internal/fd"
	"relatrust/internal/gen"
	"relatrust/internal/relation"
)

var update = flag.Bool("update", false, "rewrite golden files")

// writeGenCSV writes a seeded census-like instance over 8 attributes with
// {0,1} → 7 planted and one tuple perturbed: exact mining loses the planted
// FD, approximate mining recovers it at its g3 error.
func writeGenCSV(t *testing.T) string {
	t.Helper()
	spec := gen.SubSpec(gen.CensusSpec(), 8)
	sigma := fd.Set{fd.MustNew(relation.NewAttrSet(0, 1), 7)}
	clean, err := gen.Generate(spec, sigma, 60, 11)
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := gen.PerturbData(clean, sigma, 0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gen.csv")
	if err := relation.WriteCSVFile(path, dirty.Instance); err != nil {
		t.Fatal(err)
	}
	return path
}

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
		t.Errorf("%s drifted from golden file:\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestGoldenOutput(t *testing.T) {
	data := writeGenCSV(t)
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"exact.golden", []string{"-max-lhs", "2"}},
		{"approx.golden", []string{"-max-error", "0.1", "-max", "5",
			"-attrs", "age,class_of_worker,education,enroll_in_edu,marital_stat"}},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(append([]string{"-data", data}, tc.args...), &stdout, &stderr); err != nil {
			t.Fatalf("%s: %v (stderr %q)", tc.golden, err, stderr.String())
		}
		checkGolden(t, tc.golden, stdout.Bytes())
	}
}

func TestUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "-data is required") {
		t.Fatalf("no args: err = %v", err)
	}
}

// TestHeaderOnlyCSV: a CSV with no tuples is rejected with
// ErrEmptyInstance, as POST /v1/discover rejects an empty dataset.
func TestHeaderOnlyCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.csv")
	if err := os.WriteFile(path, []byte("A,B,C\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-data", path}, &stdout, &stderr); !errors.Is(err, relatrust.ErrEmptyInstance) {
		t.Fatalf("header-only CSV: err = %v, want ErrEmptyInstance", err)
	}
}
