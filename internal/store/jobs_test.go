package store

// Unit tests for the job record and result-log codecs: round-trips,
// atomicity of the record write, torn-tail truncation of the append-only
// log, and quarantine of files that fail their checksums.

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
)

func testJobStore(t *testing.T) *JobStore {
	t.Helper()
	s, err := OpenJobs(t.TempDir(), Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testRecord(id string) JobRecord {
	return JobRecord{
		ID:      id,
		JobSpec: JobSpec{Dataset: "paper", FDs: "A->B; C->D", TauHigh: -1, Weights: "distinct-count", Seed: 9},
		State:   "running", CreatedUnix: 1700000000, UpdatedUnix: 1700000001,
	}
}

func TestJobRecordRoundTrip(t *testing.T) {
	s := testJobStore(t)
	want := testRecord("j0011223344556677")
	if err := s.SaveRecord(want); err != nil {
		t.Fatal(err)
	}
	// Overwrites are atomic replacements, not appends.
	want.State = "completed"
	want.UpdatedUnix = 1700000002
	if err := s.SaveRecord(want); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("LoadAll returned %d jobs, want 1", len(got))
	}
	if got[0].Record != want {
		t.Fatalf("record round-trip:\n got %+v\nwant %+v", got[0].Record, want)
	}
	if len(got[0].Frames) != 0 || got[0].LogBytes != 0 {
		t.Fatalf("job without a log reports frames=%d bytes=%d", len(got[0].Frames), got[0].LogBytes)
	}
}

func TestJobRecordInvalidID(t *testing.T) {
	s := testJobStore(t)
	for _, id := range []string{"", "../escape", "a/b", ".hidden", "x.job", "y.rlog"} {
		if err := s.SaveRecord(testRecord(id)); err == nil {
			t.Errorf("SaveRecord accepted id %q", id)
		}
	}
}

func TestJobResultLogRoundTrip(t *testing.T) {
	s := testJobStore(t)
	id := "jlog"
	frames := [][]byte{[]byte(`{"level":1}`), []byte(`{"level":2}`), []byte(`{"level":3}`)}
	var total int64
	for _, f := range frames {
		n, err := s.AppendResult(id, f)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	got, size, err := s.readResultLog(id)
	if err != nil {
		t.Fatal(err)
	}
	if size != total {
		t.Errorf("log size %d, appended %d", size, total)
	}
	if len(got) != len(frames) {
		t.Fatalf("replayed %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Errorf("frame %d: got %q want %q", i, got[i], frames[i])
		}
	}
}

func TestJobResultLogTornTailTruncated(t *testing.T) {
	s := testJobStore(t)
	id := "jtorn"
	if _, err := s.AppendResult(id, []byte(`{"level":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendResult(id, []byte(`{"level":2}`)); err != nil {
		t.Fatal(err)
	}
	path := s.logPath(id)
	whole, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a frame header with half its payload.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{20, 0, 0, 0, 1, 2, 3, 4, 'h', 'a', 'l'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	frames, size, err := s.readResultLog(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("replayed %d frames through a torn tail, want 2", len(frames))
	}
	if size != whole.Size() {
		t.Errorf("truncated size %d, want the pre-crash size %d", size, whole.Size())
	}
	if st, _ := os.Stat(path); st.Size() != whole.Size() {
		t.Errorf("file not truncated: %d bytes on disk, want %d", st.Size(), whole.Size())
	}
	// Appends after the truncation frame cleanly.
	if _, err := s.AppendResult(id, []byte(`{"level":3}`)); err != nil {
		t.Fatal(err)
	}
	frames, _, err = s.readResultLog(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 3 {
		t.Fatalf("replayed %d frames after post-truncation append, want 3", len(frames))
	}
}

func TestJobResultLogChecksumCutsReplay(t *testing.T) {
	s := testJobStore(t)
	id := "jcrc"
	for i := 0; i < 3; i++ {
		if _, err := s.AppendResult(id, []byte(`{"row":true}`)); err != nil {
			t.Fatal(err)
		}
	}
	// Flip one payload byte of the second frame; it and everything after
	// it are unreplayable (the log is only trusted up to the first bad
	// checksum).
	raw, err := os.ReadFile(s.logPath(id))
	if err != nil {
		t.Fatal(err)
	}
	frameLen := 8 + len(`{"row":true}`)
	raw[len(logMagic)+frameLen+8+2] ^= 0xFF
	if err := os.WriteFile(s.logPath(id), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	frames, _, err := s.readResultLog(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 {
		t.Fatalf("replayed %d frames past a checksum failure, want 1", len(frames))
	}
}

func TestJobResultLogBadHeaderQuarantined(t *testing.T) {
	s := testJobStore(t)
	id := "jhdr"
	if err := os.WriteFile(s.logPath(id), []byte("NOTALOG!stuff"), 0o644); err != nil {
		t.Fatal(err)
	}
	frames, size, err := s.readResultLog(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 0 || size != 0 {
		t.Fatalf("bad-header log replayed frames=%d size=%d, want empty", len(frames), size)
	}
	if s.Quarantined() != 1 {
		t.Errorf("quarantined = %d, want 1", s.Quarantined())
	}
	if _, err := os.Stat(s.logPath(id) + corruptExt); err != nil {
		t.Errorf("quarantine file missing: %v", err)
	}
}

func TestJobCorruptRecordQuarantined(t *testing.T) {
	s := testJobStore(t)
	rec := testRecord("jcorrupt")
	if err := s.SaveRecord(rec); err != nil {
		t.Fatal(err)
	}
	path := s.recordPath(rec.ID)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.loadRecord(path); !errors.Is(err, ErrJobCorrupt) {
		t.Fatalf("loadRecord on flipped bytes = %v, want ErrJobCorrupt", err)
	}
	got, err := s.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("LoadAll returned %d jobs from a corrupt record", len(got))
	}
	if s.Quarantined() != 1 {
		t.Errorf("quarantined = %d, want 1", s.Quarantined())
	}
}

func TestJobRecordIDMismatchQuarantined(t *testing.T) {
	s := testJobStore(t)
	rec := testRecord("joriginal")
	if err := s.SaveRecord(rec); err != nil {
		t.Fatal(err)
	}
	// A record renamed to another job's file must not resume as that job.
	if err := os.Rename(s.recordPath(rec.ID), s.recordPath("jother")); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("LoadAll resumed %d jobs from a renamed record", len(got))
	}
	if s.Quarantined() != 1 {
		t.Errorf("quarantined = %d, want 1", s.Quarantined())
	}
}

func TestJobDelete(t *testing.T) {
	s := testJobStore(t)
	rec := testRecord("jdel")
	if err := s.SaveRecord(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendResult(rec.ID, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteJob(rec.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteJob(rec.ID); err != nil {
		t.Fatalf("second delete not idempotent: %v", err)
	}
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("leftover file %s", filepath.Join(s.Dir(), e.Name()))
	}
}

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRecords returns one record per job kind with every field set that
// the kind uses. Fields are assigned, not listed in a literal, so the
// fixture does not depend on how JobRecord groups them.
func goldenRecords() map[string]JobRecord {
	var sweep JobRecord
	sweep.ID = "j0011223344556677"
	sweep.Dataset, sweep.FDs = "paper", "A,C->B; C->D"
	sweep.TauLow, sweep.TauHigh = 1, -1
	sweep.Weights, sweep.Seed, sweep.IncludeChanges = "distinct-count", 9, true
	sweep.Generation = 2
	sweep.State, sweep.ErrorCode, sweep.ErrorMessage = "failed", "max_visited", "search visited 1 states"
	sweep.CreatedUnix, sweep.UpdatedUnix = 1700000000, 1700000001

	var disc JobRecord
	disc.ID = "j8899aabbccddeeff"
	disc.Dataset, disc.Generation = "keyed", 3
	disc.Kind, disc.MaxLHS, disc.MaxError, disc.MaxResults = "discover", 2, 0.25, 7
	disc.Attrs = "Dept,Floor"
	disc.State = "completed"
	disc.CreatedUnix, disc.UpdatedUnix = 1700000002, 1700000003
	return map[string]JobRecord{"record.sweep.golden": sweep, "record.discover.golden": disc}
}

// TestJobRecordGolden pins the RTJOB001 bytes of one record per job kind:
// magic, checksum, length and the JSON payload in field order. A diff
// means records written before the change would not read back the same —
// make it deliberately, with -update.
func TestJobRecordGolden(t *testing.T) {
	for name, rec := range goldenRecords() {
		s := testJobStore(t)
		if err := s.SaveRecord(rec); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(s.recordPath(rec.ID))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update to create): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from golden file:\ngot:  %q\nwant: %q", name, got, want)
		}
		loaded, err := s.LoadAll()
		if err != nil || len(loaded) != 1 || loaded[0].Record != rec {
			t.Errorf("%s: reloaded %+v (err %v), want %+v", name, loaded, err, rec)
		}
	}
}
