package store

// Tests for the shared file discipline: every durable write fsyncs the
// store directory, and a failing directory sync fails the write without
// leaving a torn or temp file behind.

import (
	"bytes"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
)

// hookSyncDir replaces the directory sync for the test: every call is
// recorded, and err (when non-nil) is returned instead of syncing.
func hookSyncDir(t *testing.T, err *error) *[]string {
	t.Helper()
	var synced []string
	prev := syncDir
	syncDir = func(path string) error {
		synced = append(synced, path)
		if *err != nil {
			return *err
		}
		return prev(path)
	}
	t.Cleanup(func() { syncDir = prev })
	return &synced
}

func TestWritesSyncDirectory(t *testing.T) {
	var fail error
	synced := hookSyncDir(t, &fail)
	s, _ := openTest(t)
	js := testJobStore(t)

	steps := []struct {
		what string
		do   func() error
		dir  string // the directory that must be synced; "" = none
	}{
		{"Save", func() error { return s.Save("d", fixture(t)) }, s.Dir()},
		{"SaveGeneration", func() error { return s.SaveGeneration("d", 3) }, s.Dir()},
		{"SaveRecord", func() error { return js.SaveRecord(testRecord("jsync")) }, js.Dir()},
		{"first AppendResult", func() error { _, err := js.AppendResult("jsync", []byte("row1")); return err }, js.Dir()},
		// Later appends only extend a file whose entry is already durable.
		{"second AppendResult", func() error { _, err := js.AppendResult("jsync", []byte("row2")); return err }, ""},
	}
	for _, st := range steps {
		*synced = nil
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.what, err)
		}
		var want []string
		if st.dir != "" {
			want = []string{st.dir}
		}
		if !equalStrings(*synced, want) {
			t.Errorf("%s synced %v, want %v", st.what, *synced, want)
		}
	}
}

// TestDirSyncErrorFailsWrite: a directory sync error fails each durable
// write like any other I/O error, and what is on disk afterwards still
// decodes — no torn file, no temp file.
func TestDirSyncErrorFailsWrite(t *testing.T) {
	var fail error
	hookSyncDir(t, &fail)
	s, _ := openTest(t)
	js := testJobStore(t)
	if err := s.Save("d", fixture(t)); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveGeneration("d", 1); err != nil {
		t.Fatal(err)
	}
	if err := js.SaveRecord(testRecord("jsync")); err != nil {
		t.Fatal(err)
	}

	injected := errors.New("injected directory sync failure")
	fail = injected
	bigger := fixture(t)
	if err := bigger.AppendConsts("Ogdenville", "11111"); err != nil {
		t.Fatal(err)
	}
	for what, err := range map[string]error{
		"Save":           s.Save("d", bigger),
		"SaveGeneration": s.SaveGeneration("d", 2),
		"SaveRecord":     js.SaveRecord(testRecord("jsync")),
		"AppendResult": func() error {
			_, err := js.AppendResult("jsync", []byte("row1"))
			return err
		}(),
	} {
		if !errors.Is(err, injected) {
			t.Errorf("%s: err = %v, want the injected sync error", what, err)
		}
	}
	fail = nil

	if in, err := s.Load("d"); err != nil || (in.N() != fixture(t).N() && in.N() != bigger.N()) {
		t.Errorf("snapshot after failed Save: err %v", err)
	}
	if gen, err := s.LoadGeneration("d"); err != nil || (gen != 1 && gen != 2) {
		t.Errorf("generation after failed SaveGeneration: %d, %v", gen, err)
	}
	jobs, err := js.LoadAll()
	if err != nil || len(jobs) != 1 || jobs[0].Record != testRecord("jsync") {
		t.Fatalf("jobs after failed writes: %+v, %v", jobs, err)
	}
	if n := len(jobs[0].Frames); n > 1 {
		t.Errorf("result log replays %d frames after one append", n)
	}
	for _, d := range []string{s.Dir(), js.Dir()} {
		entries, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.Contains(e.Name(), ".tmp-") || strings.HasSuffix(e.Name(), corruptExt) {
				t.Errorf("leftover file %s", e.Name())
			}
		}
	}
}

// TestWriteAtomicFailureKeepsPrevious: a write that fails before the
// rename leaves the previous file byte for byte and removes its temp file.
func TestWriteAtomicFailureKeepsPrevious(t *testing.T) {
	s, _ := openTest(t)
	if err := s.Save("d", fixture(t)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(s.path("d"))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("write failed")
	err = s.writeAtomic("", "d"+snapExt, func(w io.Writer) error {
		w.Write([]byte("RTSNAP01 torn"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	after, err := os.ReadFile(s.path("d"))
	if err != nil || !bytes.Equal(after, before) {
		t.Fatalf("previous snapshot changed by a failed write (err %v)", err)
	}
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}
