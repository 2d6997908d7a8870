// Package store persists registered datasets as columnar snapshot files,
// so a restarted daemon rehydrates its registry instead of losing every
// uploaded instance.
//
// # Layout and durability
//
// A Store owns one directory; each dataset lives in a single file
// "<name>.snap" holding one relation snapshot (format RTSNAP01, see
// relation.WriteSnapshot): per-attribute value dictionaries plus int32
// code columns, checksummed, so loading rehydrates the instance together
// with its dictionary-code columns and pays no re-interning.
//
// Every file the package replaces — dataset snapshots, generation
// sidecars, job records (jobs.go) — goes through one writer: the bytes go
// to a temp file in the same directory, which is fsynced and renamed over
// the target, and then the directory itself is fsynced so the rename
// survives a crash. A crash mid-write leaves either the old file or the
// new one, never a torn file. Every load decodes through the one fuzzed
// reader, relation.ReadSnapshot.
//
// # Corruption
//
// A snapshot that fails its checksum or structure checks is *quarantined*,
// never fatal: LoadAll renames it to "<name>.snap.corrupt", emits one
// structured log line, and carries on with the remaining datasets. A
// repaired or re-uploaded dataset simply writes a fresh snapshot. I/O
// errors (permissions, a vanished directory) are surfaced to the caller —
// they are operational problems, not data damage.
package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"relatrust/internal/faultinject"
	"relatrust/internal/relation"
)

// snapExt is the dataset snapshot suffix; quarantined files get
// snapExt + corruptExt.
const (
	snapExt    = ".snap"
	corruptExt = ".corrupt"
	// genExt is the generation sidecar suffix (see SaveGeneration).
	genExt = ".gen"
)

// Options tunes a Store.
type Options struct {
	// Logger receives quarantine and skip events. nil selects
	// slog.Default().
	Logger *slog.Logger
}

// Store is a directory of dataset snapshots. Methods are safe for
// concurrent use; concurrent Saves of the same name serialize on the
// atomic rename (last writer wins).
type Store struct {
	dir

	saves atomic.Int64
	loads atomic.Int64
}

// Stats counts a store's lifetime activity, served as the store block of
// /statz; each field's metric tag names its /metrics series.
type Stats struct {
	// Saves is the number of snapshots written successfully.
	Saves int64 `json:"saves" metric:"relatrust_store_saves_total" help:"Dataset snapshots written."`
	// Loads is the number of snapshots decoded successfully.
	Loads int64 `json:"loads" metric:"relatrust_store_loads_total" help:"Dataset snapshots loaded."`
	// Quarantined is the number of corrupt snapshots renamed aside.
	Quarantined int64 `json:"quarantined" metric:"relatrust_store_quarantined_total" help:"Corrupt snapshots quarantined."`
}

// Open returns a store over dir, creating the directory if needed.
func Open(dir string, opt Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	s := &Store{}
	if err := s.open(dir, "snapshot", opt); err != nil {
		return nil, err
	}
	return s, nil
}

// Stats returns the lifetime counters.
func (s *Store) Stats() Stats {
	return Stats{
		Saves:       s.saves.Load(),
		Loads:       s.loads.Load(),
		Quarantined: s.quarantined.Load(),
	}
}

// validName guards the name→filename mapping for datasets (see
// validStem).
func validName(name string) error {
	if why := validStem(name, snapExt, genExt); why != "" {
		return fmt.Errorf("store: invalid dataset name %q (%s)", name, why)
	}
	return nil
}

func (s *Store) path(name string) string { return s.file(name + snapExt) }

// Save persists the instance under the name, atomically replacing any
// previous snapshot (see writeAtomic).
func (s *Store) Save(name string, in *relation.Instance) error {
	if err := validName(name); err != nil {
		return err
	}
	err := s.writeAtomic(faultinject.StoreWrite, name+snapExt, func(w io.Writer) error {
		return relation.WriteSnapshot(w, in)
	})
	if err != nil {
		return fmt.Errorf("store: saving %q: %w", name, err)
	}
	s.saves.Add(1)
	return nil
}

// Load reads one snapshot. A missing dataset reports fs.ErrNotExist; a
// corrupt snapshot reports relation.ErrSnapshotCorrupt (and is NOT
// quarantined — only LoadAll, the boot path, moves files aside).
func (s *Store) Load(name string) (*relation.Instance, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	return s.loadFile(s.path(name))
}

func (s *Store) loadFile(path string) (*relation.Instance, error) {
	if err := faultinject.Hit(faultinject.StoreLoad); err != nil {
		return nil, fmt.Errorf("store: loading %s: %w", filepath.Base(path), err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	in, err := relation.ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("store: loading %s: %w", filepath.Base(path), err)
	}
	s.loads.Add(1)
	return in, nil
}

// genPath is the generation sidecar of a dataset: a small text file next
// to the snapshot holding the live mutation generation the snapshot
// represents.
func (s *Store) genPath(name string) string { return s.file(name + genExt) }

// SaveGeneration persists the dataset's mutation generation, atomically
// like Save. The serving layer writes it BEFORE
// the mutated snapshot: if a crash separates the two writes, the
// directory claims a newer generation than its rows — which at worst
// costs a redundant fresh sweep — instead of serving mutated rows under
// the pre-mutation generation, which would let generation-addressed job
// results answer for the wrong data.
func (s *Store) SaveGeneration(name string, gen int64) error {
	if err := validName(name); err != nil {
		return err
	}
	err := s.writeAtomic(faultinject.StoreGenerationWrite, name+genExt, func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%d\n", gen)
		return err
	})
	if err != nil {
		return fmt.Errorf("store: saving generation of %q: %w", name, err)
	}
	return nil
}

// LoadGeneration reads the dataset's persisted mutation generation. A
// missing sidecar is generation 0 (never mutated, or persisted before the
// live tier existed), not an error; an unreadable one is. The sidecar must
// hold exactly the bytes SaveGeneration writes — decimal digits and one
// newline — so a damaged file is malformed rather than misread as a
// different generation.
func (s *Store) LoadGeneration(name string) (int64, error) {
	if err := validName(name); err != nil {
		return 0, err
	}
	b, err := os.ReadFile(s.genPath(name))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: loading generation of %q: %w", name, err)
	}
	gen, err := strconv.ParseInt(strings.TrimSuffix(string(b), "\n"), 10, 64)
	if err != nil || gen < 0 || string(b) != strconv.FormatInt(gen, 10)+"\n" {
		return 0, fmt.Errorf("store: generation sidecar of %q is malformed: %q", name, b)
	}
	return gen, nil
}

// Delete removes the snapshot of the name and its generation sidecar.
// Deleting a dataset that has no snapshot is not an error (idempotent).
func (s *Store) Delete(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	if err := os.Remove(s.path(name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: deleting %q: %w", name, err)
	}
	if err := os.Remove(s.genPath(name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: deleting generation of %q: %w", name, err)
	}
	return nil
}

// List returns the persisted dataset names in sorted order.
func (s *Store) List() ([]string, error) {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var names []string
	for _, e := range entries {
		if n, ok := strings.CutSuffix(e.Name(), snapExt); ok && !e.IsDir() {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Dataset is one rehydrated dataset.
type Dataset struct {
	Name     string
	Instance *relation.Instance
}

// LoadAll rehydrates every snapshot in the directory, in sorted name
// order. A snapshot that fails to decode is skipped with a structured log
// line — corrupt files are additionally quarantined (renamed aside) so
// the next boot does not trip over them again — and never aborts the
// load: the error return covers only directory-level I/O failure.
func (s *Store) LoadAll() ([]Dataset, error) {
	names, err := s.List()
	if err != nil {
		return nil, err
	}
	out := make([]Dataset, 0, len(names))
	for _, name := range names {
		path := s.path(name)
		in, err := s.loadFile(path)
		if err != nil {
			if errors.Is(err, relation.ErrSnapshotCorrupt) {
				s.quarantine(path, err)
			} else {
				s.log.Error("store: skipping unreadable snapshot",
					"file", path, "err", err)
			}
			continue
		}
		out = append(out, Dataset{Name: name, Instance: in})
	}
	return out, nil
}
