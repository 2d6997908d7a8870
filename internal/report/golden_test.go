package report

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update regenerates the golden files from the current output. Run it
// deliberately: a diff in these files is a wire- or CLI-format change.
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
	if string(want) != string(got) {
		t.Errorf("%s drifted from golden file (intentional changes: re-run with -update):\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

// TestSpectrumWriterGolden pins the CLI's streamed spectrum rendering —
// and, through RowOf, the field set every other spectrum surface encodes.
func TestSpectrumWriterGolden(t *testing.T) {
	s, reps := spectrumFixture(t)
	var b strings.Builder
	sw := NewSpectrumWriter(&b)
	for _, r := range reps {
		if err := sw.Row(s.In, r); err != nil {
			t.Fatal(err)
		}
	}
	if sw.Rows() != len(reps) {
		t.Fatalf("writer counted %d rows, want %d", sw.Rows(), len(reps))
	}
	checkGolden(t, "spectrum.golden", []byte(b.String()))
}

// TestRowJSONGolden pins the JSON encoding of the shared wire row: the
// server's NDJSON and SSE frames are built from exactly this object.
func TestRowJSONGolden(t *testing.T) {
	s, reps := spectrumFixture(t)
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for i, r := range reps {
		if err := enc.Encode(RowOf(s.In, i+1, r)); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "rows.ndjson.golden", []byte(b.String()))
}
