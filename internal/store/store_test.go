package store

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"relatrust/internal/relation"
	"relatrust/internal/testkit"
)

// openTest returns a store over a fresh temp dir with a logger capturing
// structured lines into buf.
func openTest(t *testing.T) (*Store, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&syncWriter{w: &buf}, nil))
	s, err := Open(filepath.Join(t.TempDir(), "data"), Options{Logger: log})
	if err != nil {
		t.Fatal(err)
	}
	return s, &buf
}

// syncWriter guards the capture buffer; store methods may log from
// multiple goroutines in the concurrency test.
type syncWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func fixture(t *testing.T) *relation.Instance {
	t.Helper()
	return testkit.Build([]string{"City", "ZIP"}, [][]string{
		{"Springfield", "62701"},
		{"Springfield", "97477"},
		{"Shelbyville", "46176"},
	})
}

func TestSaveLoadRoundtrip(t *testing.T) {
	s, _ := openTest(t)
	in := fixture(t)
	if err := s.Save("cities", in); err != nil {
		t.Fatal(err)
	}
	out, err := s.Load("cities")
	if err != nil {
		t.Fatal(err)
	}
	if out.N() != in.N() {
		t.Fatalf("loaded %d tuples, want %d", out.N(), in.N())
	}
	for i := range in.Tuples {
		if !out.Tuples[i].Equal(in.Tuples[i]) {
			t.Errorf("tuple %d = %v, want %v", i, out.Tuples[i], in.Tuples[i])
		}
	}
	if st := s.Stats(); st.Saves != 1 || st.Loads != 1 || st.Quarantined != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLoadMissing(t *testing.T) {
	s, _ := openTest(t)
	if _, err := s.Load("nope"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("err = %v, want fs.ErrNotExist", err)
	}
}

func TestSaveAtomicReplace(t *testing.T) {
	s, _ := openTest(t)
	if err := s.Save("d", fixture(t)); err != nil {
		t.Fatal(err)
	}
	bigger := fixture(t)
	if err := bigger.AppendConsts("Ogdenville", "11111"); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("d", bigger); err != nil {
		t.Fatal(err)
	}
	out, err := s.Load("d")
	if err != nil {
		t.Fatal(err)
	}
	if out.N() != bigger.N() {
		t.Errorf("replaced snapshot has %d tuples, want %d", out.N(), bigger.N())
	}
	// No temp droppings survive a successful save.
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

func TestDeleteIdempotent(t *testing.T) {
	s, _ := openTest(t)
	if err := s.Save("d", fixture(t)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("d"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("after delete: err = %v, want fs.ErrNotExist", err)
	}
	if err := s.Delete("d"); err != nil {
		t.Errorf("second delete: %v", err)
	}
}

// TestLoadGenerationStrict: a sidecar holding anything but the bytes
// SaveGeneration writes is malformed, never read as a prefix of itself.
func TestLoadGenerationStrict(t *testing.T) {
	s, _ := openTest(t)
	if err := s.SaveGeneration("d", 12); err != nil {
		t.Fatal(err)
	}
	if gen, err := s.LoadGeneration("d"); err != nil || gen != 12 {
		t.Fatalf("round trip: %d, %v", gen, err)
	}
	for _, raw := range []string{"12abc", "1\x002", "0x10"} {
		if err := os.WriteFile(s.genPath("d"), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if gen, err := s.LoadGeneration("d"); err == nil || !strings.Contains(err.Error(), "malformed") {
			t.Errorf("sidecar %q: got generation %d, err %v; want malformed", raw, gen, err)
		}
	}
}

func TestListSorted(t *testing.T) {
	s, _ := openTest(t)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if err := s.Save(n, fixture(t)); err != nil {
			t.Fatal(err)
		}
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"alpha", "mid", "zeta"}; !equalStrings(names, want) {
		t.Errorf("List = %v, want %v", names, want)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLoadAllQuarantinesCorrupt is the tentpole contract: a damaged
// snapshot is renamed aside with a structured log line, the healthy
// datasets still load, and nothing crashes.
func TestLoadAllQuarantinesCorrupt(t *testing.T) {
	s, logBuf := openTest(t)
	if err := s.Save("good", fixture(t)); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("bad", fixture(t)); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of "bad": the checksum catches it at load.
	path := filepath.Join(s.Dir(), "bad.snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x5a
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Load reports the damage but leaves the file where it is: only
	// LoadAll, the boot path, quarantines.
	if _, err := s.Load("bad"); !errors.Is(err, relation.ErrSnapshotCorrupt) {
		t.Fatalf("Load of a corrupt snapshot: err = %v, want ErrSnapshotCorrupt", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("Load moved the corrupt snapshot: %v", err)
	}
	if st := s.Stats(); st.Quarantined != 0 {
		t.Fatalf("Load quarantined: stats = %+v", st)
	}

	got, err := s.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "good" {
		t.Fatalf("LoadAll = %v, want only %q", got, "good")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("corrupt snapshot not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("corrupt snapshot still in place: %v", err)
	}
	if !strings.Contains(logBuf.String(), "quarantined corrupt snapshot") {
		t.Errorf("no quarantine log line; log:\n%s", logBuf.String())
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", st.Quarantined)
	}

	// The next boot sees only the healthy dataset — the quarantined file
	// does not resurface.
	again, err := s.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 1 || again[0].Name != "good" {
		t.Errorf("second LoadAll = %v", again)
	}
}

func TestInvalidNames(t *testing.T) {
	s, _ := openTest(t)
	for _, name := range []string{"", "a/b", `a\b`, "..", ".hidden", "x.snap", strings.Repeat("n", 129)} {
		if err := s.Save(name, fixture(t)); err == nil {
			t.Errorf("Save(%q) accepted an invalid name", name)
		}
		if _, err := s.Load(name); err == nil {
			t.Errorf("Load(%q) accepted an invalid name", name)
		}
	}
}

// TestConcurrentSaveLoad exercises the store from many goroutines for the
// -race pass: concurrent saves of distinct names plus reloads.
func TestConcurrentSaveLoad(t *testing.T) {
	s, _ := openTest(t)
	in := fixture(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("d%d", g)
			for i := 0; i < 5; i++ {
				if err := s.Save(name, in); err != nil {
					t.Errorf("Save %s: %v", name, err)
					return
				}
				if _, err := s.Load(name); err != nil {
					t.Errorf("Load %s: %v", name, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 8 {
		t.Errorf("%d datasets after concurrent saves, want 8", len(names))
	}
}
