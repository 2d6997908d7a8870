package store

// Job persistence: the durable half of the internal/jobs tier. A JobStore
// owns one directory holding, per job, a record file ("<id>.job", format
// RTJOB001: magic + crc32c + length + JSON payload) and an append-only
// result log ("<id>.rlog", format RTJLOG01: a magic header followed by
// length+crc32c-framed frames — frontier rows or mined FDs). Records go
// through the same atomic writer as dataset snapshots (dir.writeAtomic),
// so a crash mid-write leaves either the old record or the new one. Each
// append is fsynced, and the append that creates a log also fsyncs the
// directory, so a frame a client saw survives a crash. A crash mid-append
// leaves a torn final frame that the next open truncates away, so every
// frame that survives a reboot is exactly the bytes that were
// checkpointed. Corrupt records and unrecognizable logs are quarantined
// ("<file>.corrupt"), never fatal.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"relatrust/internal/faultinject"
)

const (
	jobExt = ".job"
	logExt = ".rlog"

	recordMagic = "RTJOB001"
	logMagic    = "RTJLOG01"

	// logFrameOverhead is the per-frame framing cost in the result log:
	// a 4-byte little-endian payload length plus a 4-byte crc32c.
	logFrameOverhead = 8
	// maxLogFrame bounds one frame's payload; a length field beyond it is
	// corruption, not a row.
	maxLogFrame = 64 << 20
)

var jobCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrJobCorrupt marks a job record or result log that failed its checksum
// or structure checks; match with errors.Is.
var ErrJobCorrupt = errors.New("store: corrupt job file")

// JobSpec is a job's content address, declared once: internal/jobs names
// it jobs.Spec and derives the job id from it (ID), the record persists it
// and the serving layer's job body reports it, both by embedding it, so the
// three cannot drift apart. The field order and JSON tags are part of the
// RTJOB001 payload and of the wire body; keep both as they are. Engine
// knobs (workers, best-first, visit caps) are deliberately absent: they do
// not change the rows, so submissions differing only in them coalesce and
// the first submission's knobs win. Seed and IncludeChanges are present
// because they change the row bytes.
type JobSpec struct {
	Dataset string `json:"dataset"`
	// FDs is the canonical (schema-formatted) FD set.
	FDs     string `json:"fds"`
	TauLow  int    `json:"tau_low"`
	TauHigh int    `json:"tau_high"` // -1 = sweep from δP(Σ, I)
	Weights string `json:"weights"`
	Seed    int64  `json:"seed,omitempty"`
	// IncludeChanges is part of the address: it changes the row bytes.
	IncludeChanges bool `json:"include_changes,omitempty"`
	// Generation is the dataset's mutation generation at submission:
	// mutating a dataset re-addresses every job against it, and a mismatch
	// at recovery fails the job instead of resuming it against new rows.
	Generation int64 `json:"generation,omitempty"`

	// Kind distinguishes job bodies ("" = frontier sweep, "discover" =
	// FD mining); the discovery knobs below are set only for the latter.
	// All are additive and omitempty, so pre-upgrade records decode with
	// their zero values and keep their ids.
	Kind       string  `json:"kind,omitempty"`
	MaxLHS     int     `json:"max_lhs,omitempty"`
	MaxError   float64 `json:"max_error,omitempty"`
	MaxResults int     `json:"max_results,omitempty"`
	// Attrs is the canonical comma-separated attribute-name restriction.
	Attrs string `json:"attrs,omitempty"`
}

// ID derives the job id from the spec: a short hex digest with a "j"
// prefix. Identical specs — including across process restarts — get
// identical ids; that is what coalescing and boot resume key on. The
// legacy sweep digest (Kind == "") is frozen: a daemon upgraded across
// the discovery fields must derive the same id for a persisted sweep job,
// or boot resume would orphan every record.
func (sp JobSpec) ID() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x1f%s\x1f%d\x1f%d\x1f%s\x1f%d\x1f%t\x1f%d",
		sp.Dataset, sp.FDs, sp.TauLow, sp.TauHigh, sp.Weights, sp.Seed, sp.IncludeChanges,
		sp.Generation)
	if sp.Kind != "" {
		fmt.Fprintf(h, "\x1f%s\x1f%d\x1f%g\x1f%d\x1f%s",
			sp.Kind, sp.MaxLHS, sp.MaxError, sp.MaxResults, sp.Attrs)
	}
	return "j" + hex.EncodeToString(h.Sum(nil))[:16]
}

// JobRecord is the durable identity and terminal state of one job: its
// id, its spec, and its state, which is "running" until the sweep reaches
// a terminal state — that is what makes boot-time resume possible: a
// record still "running" after a crash is a sweep to continue from its
// result log.
type JobRecord struct {
	ID string `json:"id"`
	JobSpec

	State        string `json:"state"`
	ErrorCode    string `json:"error_code,omitempty"`
	ErrorMessage string `json:"error_message,omitempty"`
	CreatedUnix  int64  `json:"created_unix,omitempty"`
	UpdatedUnix  int64  `json:"updated_unix,omitempty"`
}

// JobStore is a directory of job records and result logs. Methods are safe
// for concurrent use across distinct jobs; callers serialize per job (the
// job manager owns each job's lifecycle).
type JobStore struct {
	dir
}

// OpenJobs returns a job store over dir, creating the directory if needed.
func OpenJobs(dir string, opt Options) (*JobStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty jobs directory")
	}
	s := &JobStore{}
	if err := s.open(dir, "job file", opt); err != nil {
		return nil, err
	}
	return s, nil
}

// Quarantined returns how many corrupt job files were renamed aside.
func (s *JobStore) Quarantined() int64 { return s.quarantined.Load() }

// validJobID guards the id→filename mapping for jobs (see validStem).
func validJobID(id string) error {
	if validStem(id, jobExt, logExt) != "" {
		return fmt.Errorf("store: invalid job id %q", id)
	}
	return nil
}

func (s *JobStore) recordPath(id string) string { return s.file(id + jobExt) }
func (s *JobStore) logPath(id string) string    { return s.file(id + logExt) }

// SaveRecord persists the record, atomically replacing any previous one
// (see writeAtomic).
func (s *JobStore) SaveRecord(rec JobRecord) error {
	if err := validJobID(rec.ID); err != nil {
		return err
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: saving job record %q: %w", rec.ID, err)
	}
	buf := make([]byte, 0, len(recordMagic)+12+len(payload))
	buf = append(buf, recordMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, jobCRC))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	err = s.writeAtomic(faultinject.JobRecordWrite, rec.ID+jobExt, func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
	if err != nil {
		return fmt.Errorf("store: saving job record %q: %w", rec.ID, err)
	}
	return nil
}

// loadRecord decodes one record file. Checksum or structure failure wraps
// ErrJobCorrupt.
func (s *JobStore) loadRecord(path string) (JobRecord, error) {
	var rec JobRecord
	raw, err := os.ReadFile(path)
	if err != nil {
		return rec, fmt.Errorf("store: %w", err)
	}
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("store: %s: %w: %s", filepath.Base(path), ErrJobCorrupt, fmt.Sprintf(format, args...))
	}
	if len(raw) < len(recordMagic)+12 {
		return rec, corrupt("truncated header (%d bytes)", len(raw))
	}
	if string(raw[:len(recordMagic)]) != recordMagic {
		return rec, corrupt("bad magic %q", raw[:len(recordMagic)])
	}
	sum := binary.LittleEndian.Uint32(raw[len(recordMagic):])
	n := binary.LittleEndian.Uint64(raw[len(recordMagic)+4:])
	payload := raw[len(recordMagic)+12:]
	if uint64(len(payload)) != n {
		return rec, corrupt("payload length %d, header says %d", len(payload), n)
	}
	if crc32.Checksum(payload, jobCRC) != sum {
		return rec, corrupt("checksum mismatch")
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, corrupt("decoding payload: %v", err)
	}
	return rec, nil
}

// AppendResult appends one checkpointed frame to the job's result
// log and fsyncs it, creating the log (with its magic header) on first
// use; the append that creates the log also fsyncs the directory, so the
// log's directory entry is as durable as its first frame. It returns the bytes written to disk. A crash mid-append leaves a
// torn tail that readResultLog truncates on the next boot, so the log
// never replays a partially-written frame.
func (s *JobStore) AppendResult(id string, frame []byte) (int64, error) {
	if err := validJobID(id); err != nil {
		return 0, err
	}
	if err := faultinject.Hit(faultinject.JobCheckpoint); err != nil {
		return 0, fmt.Errorf("store: checkpointing job %q: %w", id, err)
	}
	f, err := os.OpenFile(s.logPath(id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, fmt.Errorf("store: checkpointing job %q: %w", id, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("store: checkpointing job %q: %w", id, err)
	}
	created := st.Size() == 0
	buf := make([]byte, 0, len(logMagic)+logFrameOverhead+len(frame))
	if created {
		buf = append(buf, logMagic...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(frame)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(frame, jobCRC))
	buf = append(buf, frame...)
	if _, err := f.Write(buf); err != nil {
		return 0, fmt.Errorf("store: checkpointing job %q: %w", id, err)
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("store: checkpointing job %q: %w", id, err)
	}
	if created {
		if err := syncDir(s.root); err != nil {
			return 0, fmt.Errorf("store: checkpointing job %q: %w", id, err)
		}
	}
	return int64(len(buf)), nil
}

// readResultLog replays the job's checkpointed frames. A missing log is an
// empty one. A torn or checksum-failing tail is truncated away (with a log
// line) so later appends continue from the last good frame; a log whose
// magic header is wrong is quarantined wholesale and replays as empty.
func (s *JobStore) readResultLog(id string) (frames [][]byte, size int64, err error) {
	path := s.logPath(id)
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("store: reading result log %q: %w", id, err)
	}
	if len(raw) < len(logMagic) || string(raw[:len(logMagic)]) != logMagic {
		s.quarantine(path, fmt.Errorf("%w: bad result-log header", ErrJobCorrupt))
		return nil, 0, nil
	}
	good := int64(len(logMagic))
	rest := raw[len(logMagic):]
	for len(rest) > 0 {
		if len(rest) < logFrameOverhead {
			break // torn frame header
		}
		n := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if n > maxLogFrame || len(rest) < logFrameOverhead+int(n) {
			break // implausible length or torn payload
		}
		payload := rest[logFrameOverhead : logFrameOverhead+int(n)]
		if crc32.Checksum(payload, jobCRC) != sum {
			break // corrupt payload; everything after it is unframeable
		}
		frames = append(frames, bytes.Clone(payload))
		good += int64(logFrameOverhead + int(n))
		rest = rest[logFrameOverhead+int(n):]
	}
	if good < int64(len(raw)) {
		s.log.Warn("store: truncating torn result-log tail",
			"file", path, "good_bytes", good, "total_bytes", len(raw), "frames", len(frames))
		if err := os.Truncate(path, good); err != nil {
			return nil, 0, fmt.Errorf("store: truncating result log %q: %w", id, err)
		}
	}
	return frames, good, nil
}

// DeleteJob removes the job's record and result log (idempotent).
func (s *JobStore) DeleteJob(id string) error {
	if err := validJobID(id); err != nil {
		return err
	}
	var firstErr error
	for _, p := range []string{s.recordPath(id), s.logPath(id)} {
		if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) && firstErr == nil {
			firstErr = fmt.Errorf("store: deleting job %q: %w", id, err)
		}
	}
	return firstErr
}

// RecoveredJob is one persisted job rehydrated at boot: its record plus
// every frame that survived in its result log.
type RecoveredJob struct {
	Record JobRecord
	Frames [][]byte
	// LogBytes is the result log's on-disk size after tail truncation.
	LogBytes int64
}

// LoadAll rehydrates every persisted job in sorted id order. Corrupt
// records are quarantined, unreadable ones skipped with a log line;
// neither aborts the load — the error return covers only directory-level
// I/O failure. An orphaned result log (no record) is left in place: its
// record may reappear, and DeleteJob clears both.
func (s *JobStore) LoadAll() ([]RecoveredJob, error) {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if id, ok := strings.CutSuffix(e.Name(), jobExt); ok && !e.IsDir() {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	out := make([]RecoveredJob, 0, len(ids))
	for _, id := range ids {
		path := s.recordPath(id)
		if err := faultinject.Hit(faultinject.JobResumeLoad); err != nil {
			s.log.Error("store: skipping unreadable job record", "file", path, "err", err)
			continue
		}
		rec, err := s.loadRecord(path)
		if err != nil {
			if errors.Is(err, ErrJobCorrupt) {
				s.quarantine(path, err)
			} else {
				s.log.Error("store: skipping unreadable job record", "file", path, "err", err)
			}
			continue
		}
		if rec.ID != id {
			// A record renamed to another job's name would resume the wrong
			// sweep; treat the mismatch as corruption.
			s.quarantine(path, fmt.Errorf("%w: record id %q under file %q", ErrJobCorrupt, rec.ID, id))
			continue
		}
		frames, size, err := s.readResultLog(id)
		if err != nil {
			s.log.Error("store: skipping job with unreadable result log", "id", id, "err", err)
			continue
		}
		out = append(out, RecoveredJob{Record: rec, Frames: frames, LogBytes: size})
	}
	return out, nil
}
