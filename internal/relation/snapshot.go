package relation

// Columnar instance snapshots. The serving layer persists registered
// datasets so they survive a daemon restart; this file defines the on-disk
// format and the encode/decode pair. The layout deliberately mirrors the
// in-memory dictionary encoding of codes.go: per attribute, a dictionary
// of distinct values in first-encounter (= code) order followed by the
// int32 code column. Decoding therefore rebuilds the tuples *and* installs
// the code columns into the instance's cache in one pass — a rehydrated
// instance answers Codes() without re-interning anything, exactly as if it
// had been analyzed already.
//
// # Format (version RTSNAP01)
//
//	magic   8 bytes  "RTSNAP01"
//	crc32c  4 bytes  little-endian Castagnoli checksum of the payload
//	length  8 bytes  little-endian payload byte count
//	payload:
//	  uvarint width, then width × (uvarint len + name bytes)
//	  uvarint nTuples
//	  per attribute:
//	    uvarint dictLen
//	    dictLen × value: kind byte 0 (constant: uvarint len + bytes)
//	                     or 1 (variable: varint id)
//	    nTuples × uvarint code (each < dictLen)
//
// Any mismatch — bad magic, checksum failure, truncation, out-of-range
// codes or widths — decodes to an error matching ErrSnapshotCorrupt, so
// callers can tell a damaged file (quarantine it) from an I/O failure
// (surface it).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// snapMagic identifies snapshot files; the trailing digits are the format
// version and change whenever the payload layout does.
const snapMagic = "RTSNAP01"

// maxSnapshotPayload bounds the payload length field before any allocation
// happens, so a corrupt header cannot ask for an absurd buffer.
const maxSnapshotPayload = 1 << 31

// ErrSnapshotCorrupt reports that snapshot bytes are not a valid RTSNAP01
// document: wrong magic, failed checksum, truncated payload, or
// inconsistent internal structure. Matched with errors.Is.
var ErrSnapshotCorrupt = errors.New("relation: snapshot corrupt")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSnapshotCorrupt, fmt.Sprintf(format, args...))
}

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// WriteSnapshot encodes the instance as one self-contained snapshot
// document. The instance must not be mutated concurrently (the encoder
// reads the shared code columns, like any analysis).
func WriteSnapshot(w io.Writer, in *Instance) error {
	var payload bytes.Buffer
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		payload.Write(scratch[:binary.PutUvarint(scratch[:], v)])
	}
	putVarint := func(v int64) {
		payload.Write(scratch[:binary.PutVarint(scratch[:], v)])
	}
	putString := func(s string) {
		putUvarint(uint64(len(s)))
		payload.WriteString(s)
	}

	width := in.Schema.Width()
	putUvarint(uint64(width))
	for a := 0; a < width; a++ {
		putString(in.Schema.Name(a))
	}
	n := in.N()
	putUvarint(uint64(n))

	for a := 0; a < width; a++ {
		codes, distinct := in.Codes(a)
		// Re-canonicalize to dense first-encounter codes: columns installed
		// by the live mutation tier share grow-only dictionaries, so after
		// deletes their code space can have gaps (distinct > values actually
		// present), which the decoder rightly rejects. For columns that are
		// already dense and first-encounter ordered — everything Codes()
		// builds itself — the remap is the identity and the bytes are
		// unchanged.
		remap := make([]int32, distinct)
		for i := range remap {
			remap[i] = -1
		}
		dict := make([]Value, 0, distinct)
		for t, c := range codes {
			if remap[c] < 0 {
				remap[c] = int32(len(dict))
				dict = append(dict, in.Tuples[t][a])
			}
		}
		putUvarint(uint64(len(dict)))
		for _, v := range dict {
			if v.IsVar() {
				payload.WriteByte(1)
				putVarint(v.VarID())
			} else {
				payload.WriteByte(0)
				putString(v.Str())
			}
		}
		for _, c := range codes {
			putUvarint(uint64(remap[c]))
		}
	}

	var header [20]byte
	copy(header[:8], snapMagic)
	binary.LittleEndian.PutUint32(header[8:12], crc32.Checksum(payload.Bytes(), snapCRC))
	binary.LittleEndian.PutUint64(header[12:20], uint64(payload.Len()))
	if _, err := w.Write(header[:]); err != nil {
		return err
	}
	_, err := w.Write(payload.Bytes())
	return err
}

// ReadSnapshot decodes one snapshot document into a fresh instance whose
// per-attribute code columns are already cached — rehydration pays no
// re-interning. Damaged input errors match ErrSnapshotCorrupt; errors from
// r are returned as-is.
func ReadSnapshot(r io.Reader) (*Instance, error) {
	var header [20]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, corruptf("short header")
		}
		return nil, err
	}
	if string(header[:8]) != snapMagic {
		return nil, corruptf("bad magic %q", header[:8])
	}
	wantCRC := binary.LittleEndian.Uint32(header[8:12])
	length := binary.LittleEndian.Uint64(header[12:20])
	if length > maxSnapshotPayload {
		return nil, corruptf("payload length %d exceeds limit", length)
	}
	// Read incrementally rather than allocating the declared length up
	// front: a corrupt header claiming gigabytes must cost only as much
	// memory as data actually arrives.
	payload, err := io.ReadAll(io.LimitReader(r, int64(length)))
	if err != nil {
		return nil, err
	}
	if uint64(len(payload)) != length {
		return nil, corruptf("truncated payload: %d of %d bytes", len(payload), length)
	}
	if got := crc32.Checksum(payload, snapCRC); got != wantCRC {
		return nil, corruptf("checksum mismatch: file says %08x, payload is %08x", wantCRC, got)
	}
	// A snapshot is a whole document: bytes beyond the declared payload
	// mean the file was damaged or double-written.
	var extra [1]byte
	if n, _ := io.ReadFull(r, extra[:]); n != 0 {
		return nil, corruptf("data after the declared payload")
	}
	return decodeSnapshotPayload(payload)
}

// snapReader walks the checksummed payload; every read failure is a
// corruption (the checksum already matched, so the structure itself lies).
type snapReader struct {
	buf []byte
}

func (d *snapReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, corruptf("bad uvarint")
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *snapReader) varint() (int64, error) {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		return 0, corruptf("bad varint")
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *snapReader) string() (string, error) {
	l, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if l > uint64(len(d.buf)) {
		return "", corruptf("string length %d overruns payload", l)
	}
	s := string(d.buf[:l])
	d.buf = d.buf[l:]
	return s, nil
}

func (d *snapReader) byte() (byte, error) {
	if len(d.buf) == 0 {
		return 0, corruptf("unexpected end of payload")
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b, nil
}

func decodeSnapshotPayload(payload []byte) (*Instance, error) {
	d := &snapReader{buf: payload}
	width, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if width == 0 || width > MaxAttrs {
		return nil, corruptf("width %d outside [1, %d]", width, MaxAttrs)
	}
	names := make([]string, width)
	for a := range names {
		if names[a], err = d.string(); err != nil {
			return nil, err
		}
	}
	schema, err := NewSchema(names...)
	if err != nil {
		return nil, corruptf("invalid schema: %v", err)
	}
	nTuples, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	// Each (dict entry + code) costs at least one payload byte, so the
	// tuple count is bounded by what actually arrived.
	if nTuples > uint64(len(payload)) {
		return nil, corruptf("tuple count %d overruns payload", nTuples)
	}

	in := NewInstance(schema)
	in.Tuples = make([]Tuple, nTuples)
	cells := make([]Value, nTuples*width) // one backing array for all rows
	for t := range in.Tuples {
		in.Tuples[t] = cells[uint64(t)*width : (uint64(t)+1)*width : (uint64(t)+1)*width]
	}
	in.codes.cols = make([]*codeColumn, width)

	for a := 0; a < int(width); a++ {
		dictLen, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if dictLen > nTuples || (nTuples > 0 && dictLen == 0) || dictLen > math.MaxInt32 {
			return nil, corruptf("attribute %d: dictionary of %d values for %d tuples", a, dictLen, nTuples)
		}
		dict := make([]Value, dictLen)
		for c := range dict {
			kind, err := d.byte()
			if err != nil {
				return nil, err
			}
			switch kind {
			case 0:
				s, err := d.string()
				if err != nil {
					return nil, err
				}
				dict[c] = Const(s)
			case 1:
				id, err := d.varint()
				if err != nil {
					return nil, err
				}
				dict[c] = Value{id: id, isVar: true}
			default:
				return nil, corruptf("attribute %d: unknown value kind %d", a, kind)
			}
		}
		codes := make([]int32, nTuples)
		for t := range codes {
			c, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if c >= dictLen {
				return nil, corruptf("attribute %d: code %d outside dictionary of %d", a, c, dictLen)
			}
			codes[t] = int32(c)
			in.Tuples[t][a] = dict[c]
		}
		in.codes.cols[a] = &codeColumn{codes: codes, n: int32(dictLen)}
	}
	if len(d.buf) != 0 {
		return nil, corruptf("%d trailing bytes after payload", len(d.buf))
	}
	return in, nil
}
