package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"reflect"
	"strings"
	"testing"
)

// fuzzJobStore opens one job store for a whole fuzz run; each input
// overwrites the same files, so iterations stay cheap.
func fuzzJobStore(f *testing.F) *JobStore {
	s, err := OpenJobs(f.TempDir(), Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		f.Fatal(err)
	}
	return s
}

// FuzzLoadRecord: arbitrary RTJOB001 file bytes must decode to a record or
// fail with ErrJobCorrupt, never panic; a decoded record with a valid id
// saves and loads back unchanged.
func FuzzLoadRecord(f *testing.F) {
	s := fuzzJobStore(f)
	for _, rec := range goldenRecords() {
		if err := s.SaveRecord(rec); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(s.recordPath(rec.ID))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(recordMagic))
	f.Add([]byte{})
	path := s.recordPath("fuzz")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := s.loadRecord(path)
		if err != nil {
			if !errors.Is(err, ErrJobCorrupt) {
				t.Fatalf("decode failure not marked corrupt: %v", err)
			}
			return
		}
		if validJobID(rec.ID) != nil {
			return
		}
		if err := s.SaveRecord(rec); err != nil {
			t.Fatal(err)
		}
		again, err := s.loadRecord(s.recordPath(rec.ID))
		if err != nil {
			t.Fatalf("reloading a saved record: %v", err)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("record round-trip drift:\n%+v\n%+v", again, rec)
		}
	})
}

// FuzzReadResultLog: arbitrary RTJLOG01 bytes must replay as the longest
// well-framed prefix, never panic: the replayed frames re-frame to exactly
// the kept bytes, the file is cut to them (or quarantined when the header
// is wrong), and a second replay reads the same frames without cutting.
func FuzzReadResultLog(f *testing.F) {
	s := fuzzJobStore(f)
	const id = "jfuzz"
	for _, frames := range [][]string{{`{"tau":3}`, `{"tau":1}`}, {""}, nil} {
		var log []byte
		log = append(log, logMagic...)
		for _, fr := range frames {
			log = binary.LittleEndian.AppendUint32(log, uint32(len(fr)))
			log = binary.LittleEndian.AppendUint32(log, crc32.Checksum([]byte(fr), jobCRC))
			log = append(log, fr...)
		}
		f.Add(log)
		f.Add(log[:len(log)-1]) // torn tail
	}
	f.Add([]byte("RTJLOG00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := s.logPath(id)
		os.Remove(path + corruptExt)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		frames, size, err := s.readResultLog(id)
		if err != nil {
			t.Fatal(err)
		}
		if size == 0 {
			if len(frames) != 0 {
				t.Fatalf("%d frames from a log replayed as empty", len(frames))
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("unrecognizable log not quarantined: %v", err)
			}
			return
		}
		reframed := []byte(logMagic)
		for _, fr := range frames {
			reframed = binary.LittleEndian.AppendUint32(reframed, uint32(len(fr)))
			reframed = binary.LittleEndian.AppendUint32(reframed, crc32.Checksum(fr, jobCRC))
			reframed = append(reframed, fr...)
		}
		if int64(len(reframed)) != size || !bytes.Equal(reframed, data[:size]) {
			t.Fatalf("kept %d bytes, frames re-frame to %d bytes that differ from the input prefix", size, len(reframed))
		}
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, data[:size]) {
			t.Fatalf("log cut to %d bytes, want the %d kept", len(onDisk), size)
		}
		again, size2, err := s.readResultLog(id)
		if err != nil || size2 != size || !reflect.DeepEqual(again, frames) {
			t.Fatalf("second replay drifted: %d frames/%d bytes (err %v), want %d/%d", len(again), size2, err, len(frames), size)
		}
	})
}

// FuzzLoadGeneration: arbitrary generation sidecar bytes must load or fail
// as malformed, never panic, and a loaded generation is one SaveGeneration
// writes back as exactly the input bytes.
func FuzzLoadGeneration(f *testing.F) {
	s, err := Open(f.TempDir(), Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{"0\n", "12\n", "9223372036854775807\n", "12abc", "1\x002", "0x10"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(s.genPath("d"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		gen, err := s.LoadGeneration("d")
		if err != nil {
			if !strings.Contains(err.Error(), "malformed") {
				t.Fatalf("load failure not marked malformed: %v", err)
			}
			return
		}
		if err := s.SaveGeneration("d", gen); err != nil {
			t.Fatal(err)
		}
		saved, err := os.ReadFile(s.genPath("d"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved, data) {
			t.Fatalf("accepted %q as generation %d, which saves as %q", data, gen, saved)
		}
	})
}
