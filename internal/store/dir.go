package store

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"relatrust/internal/faultinject"
)

// dir is the file discipline both stores share: one directory, one way to
// replace a file durably, one way to set a corrupt file aside.
type dir struct {
	root string
	log  *slog.Logger
	// noun names the store's files in quarantine log lines ("snapshot",
	// "job file").
	noun string

	quarantined atomic.Int64
}

// open creates the directory if needed and fills in the shared fields.
func (d *dir) open(path, noun string, opt Options) error {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	d.root, d.noun, d.log = path, noun, opt.Logger
	if d.log == nil {
		d.log = slog.Default()
	}
	return nil
}

// Dir returns the store's directory.
func (d *dir) Dir() string { return d.root }

func (d *dir) file(name string) string { return filepath.Join(d.root, name) }

// syncDir fsyncs a directory, making the renames and creations inside it
// durable. A package variable so tests can observe and fail it.
var syncDir = func(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeAtomic replaces the named file with what write produces: it fires
// the fault point, writes a temp file in the same directory, fsyncs and
// closes it, renames it over the target, and fsyncs the directory. Until
// the rename, the previous file is untouched; any failure before it
// removes the temp file. A crash therefore leaves either the old file or
// the new one, never a torn one.
func (d *dir) writeAtomic(point, name string, write func(io.Writer) error) error {
	if err := faultinject.Hit(point); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(d.root, name+".tmp-*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), d.file(name))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(d.root)
}

// quarantine moves a corrupt file aside so it is preserved for inspection
// but never reloaded, and logs the event.
func (d *dir) quarantine(path string, cause error) {
	d.quarantined.Add(1)
	qpath := path + corruptExt
	if err := os.Rename(path, qpath); err != nil {
		d.log.Error("store: quarantining corrupt "+d.noun+" failed",
			"file", path, "cause", cause, "err", err)
		return
	}
	d.log.Error("store: quarantined corrupt "+d.noun,
		"file", path, "quarantined_as", qpath, "err", cause)
}

// validStem guards a name→filename mapping: the stem is used verbatim as
// the file name before one of the store's suffixes, so anything that could
// escape the directory or collide with those suffixes is rejected. It
// returns why the stem is invalid, or "" when it is valid.
func validStem(stem string, reserved ...string) string {
	switch {
	case stem == "" || len(stem) > 128:
		return "need 1-128 chars"
	case strings.ContainsAny(stem, "/\\\x00") || strings.HasPrefix(stem, "."):
		return "no path separators or leading dots"
	}
	for _, ext := range reserved {
		if strings.Contains(stem, ext) {
			return "reserved suffix " + ext
		}
	}
	return ""
}
