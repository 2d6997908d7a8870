package server

// Native fuzz targets for the service's untrusted decode paths: the JSON
// repair- and discover-request bodies, the PATCH row-op batch, the CSV
// dataset upload, and dataset names rendered into /metrics. Plain `go test` replays the f.Add seeds plus the
// checked-in corpora under testdata/fuzz (CI's fuzz-regression step);
// `go test -fuzz FuzzX` explores further.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"relatrust"
)

func FuzzDecodeRepairRequest(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{"dataset":"cities","fds":"City->ZIP"}`),
		[]byte(`{"dataset":"cities","fds":"A,B->C; D->E","tau":0,"workers":4,"best_first":true}`),
		[]byte(`{"dataset":"x","fds":"A->B","tau_low":1,"tau_high":3,"timeout_ms":100,"include_changes":true}`),
		[]byte(`{"dataset":"x","fds":"A->B","k":3,"max":10,"seed":-1,"weights":"entropy"}`),
		[]byte(`{"dataset":"x","fds":"A->B","no_partition_cache":true,"no_decomposition":true}`),
		[]byte(`{"unknown_field":true}`),
		[]byte(`{"tau":18446744073709551615}`),
		[]byte(`{"dataset":"x","fds":"A->B"}{"trailing":"object"}`),
		[]byte(`null`),
		[]byte(``),
		[]byte(`[{"dataset":"x"}]`),
		[]byte("{\"dataset\":\"\xff\xfe\"}"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeStrict[RepairRequest](bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted requests must survive a marshal round trip: the server
		// logs and echoes request fields, so re-encoding cannot fail.
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request fails to re-marshal: %v", err)
		}
		again, err := decodeStrict[RepairRequest](bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("re-marshaled request fails to decode: %v", err)
		}
		if req.Dataset != again.Dataset || req.FDs != again.FDs ||
			(req.Tau == nil) != (again.Tau == nil) || (req.TauHigh == nil) != (again.TauHigh == nil) {
			t.Fatalf("round trip changed the request: %+v vs %+v", req, again)
		}
	})
}

func FuzzDecodeDiscoverRequest(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{"dataset":"cities"}`),
		[]byte(`{"dataset":"cities","max_lhs":2,"max_error":0.3,"max_results":5,"attrs":"City,ZIP"}`),
		[]byte(`{"dataset":"x","mode":"discover_then_repair","tau_low":1,"tau_high":3,"workers":4,"best_first":true}`),
		[]byte(`{"dataset":"x","mode":"discover_then_repair","no_partition_cache":true,"no_decomposition":true}`),
		[]byte(`{"dataset":"x","weights":"mdl","seed":-1,"max_visited":10,"include_changes":true,"timeout_ms":100}`),
		[]byte(`{"unknown_field":true}`),
		[]byte(`{"max_error":1e400}`),
		[]byte(`{"dataset":"x"}{"trailing":"object"}`),
		[]byte(`null`),
		[]byte(``),
		[]byte("{\"attrs\":\"\xff\xfe\"}"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeStrict[DiscoverRequest](bytes.NewReader(data))
		if err != nil {
			return
		}
		// Same round-trip property as FuzzDecodeRepairRequest: an
		// accepted request re-encodes, and the encoding decodes back to
		// the same request.
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request fails to re-marshal: %v", err)
		}
		again, err := decodeStrict[DiscoverRequest](bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("re-marshaled request fails to decode: %v", err)
		}
		if req.Dataset != again.Dataset || req.Attrs != again.Attrs || req.Mode != again.Mode ||
			req.MaxLHS != again.MaxLHS || req.MaxError != again.MaxError || req.MaxResults != again.MaxResults ||
			(req.TauHigh == nil) != (again.TauHigh == nil) {
			t.Fatalf("round trip changed the request: %+v vs %+v", req, again)
		}
	})
}

// FuzzDecodeRowOps drives the PATCH body decode — the strict
// mutateRequest decode, then decodeRowOps against a fixed schema. A batch
// decodeRowOps accepts must translate op for op: the same kind and row,
// and for insert/update a full tuple carrying every named value in its
// attribute's position.
func FuzzDecodeRowOps(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{"ops":[{"op":"insert","values":{"City":"A","ZIP":"1","State":"X"}}]}`),
		[]byte(`{"ops":[{"op":"update","row":0,"values":{"City":"A","ZIP":"2","State":"Y"}},{"op":"delete","row":1}]}`),
		[]byte(`{"ops":[{"op":"delete","row":-1}]}`),
		[]byte(`{"ops":[{"op":"update","values":{"City":"A","ZIP":"1","State":"X"}}]}`),
		[]byte(`{"ops":[{"op":"insert","values":{"City":"A","ZIP":"1"}}]}`),
		[]byte(`{"ops":[{"op":"insert","values":{"City":"A","ZIP":"1","Nope":"X"}}]}`),
		[]byte(`{"ops":[{"op":"upsert","row":0}]}`),
		[]byte(`{"ops":[],"extra":1}`),
		[]byte(`{"ops":null}`),
		[]byte(`{"ops":[{"op":"delete","row":0}]}{"ops":[]}`),
		[]byte("{\"ops\":[{\"op\":\"insert\",\"values\":{\"City\":\"\xff\",\"ZIP\":\"\",\"State\":\"\"}}]}"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	schema, err := relatrust.NewSchema("City", "ZIP", "State")
	if err != nil {
		f.Fatal(err)
	}
	kinds := map[string]relatrust.RowOpKind{"insert": relatrust.RowInsert, "update": relatrust.RowUpdate, "delete": relatrust.RowDelete}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeStrict[mutateRequest](bytes.NewReader(data))
		if err != nil {
			return
		}
		ops, err := decodeRowOps(schema, req.Ops)
		if err != nil {
			return
		}
		if len(ops) != len(req.Ops) {
			t.Fatalf("%d wire ops decoded to %d row ops", len(req.Ops), len(ops))
		}
		for i, op := range ops {
			w := req.Ops[i]
			if kind, ok := kinds[w.Op]; !ok || op.Kind != kind {
				t.Fatalf("op %d: wire op %q decoded as kind %d", i, w.Op, op.Kind)
			}
			if op.Kind != relatrust.RowInsert && op.Row != *w.Row {
				t.Fatalf("op %d: row %d decoded as %d", i, *w.Row, op.Row)
			}
			if op.Kind == relatrust.RowDelete {
				continue
			}
			if len(op.Tuple) != schema.Width() {
				t.Fatalf("op %d: tuple of width %d, schema width %d", i, len(op.Tuple), schema.Width())
			}
			for name, v := range w.Values {
				if got := op.Tuple[schema.Index(name)]; got.IsVar() || got.Str() != v {
					t.Fatalf("op %d: %s = %v, want the constant %q", i, name, got, v)
				}
			}
		}
	})
}

func FuzzUploadCSV(f *testing.F) {
	seeds := [][]byte{
		[]byte("A,B\n1,2\n"),
		[]byte("City,ZIP,State\nSpringfield,62701,IL\n"),
		[]byte("A\n\n"),
		[]byte("A,B\n\"x,y\",z\n"),
		[]byte("A,A\n1,2\n"),
		[]byte(",\n,\n"),
		[]byte("A,B\n1\n"),
		[]byte("A,B\r\n1,2\r\n"),
		[]byte("\"unclosed\n"),
		[]byte("A;B\n1;2\n"),
		[]byte{0xff, 0xfe, 0x00, 'A'},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	srv := New(Options{})
	var n int
	f.Fuzz(func(t *testing.T, data []byte) {
		// Drive the real handler: the fuzzed CSV rides inside the upload
		// body exactly as a client would send it.
		n++
		name := fmt.Sprintf("fz%d", n)
		body, err := json.Marshal(registerRequest{Name: name, CSV: string(data)})
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/datasets", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusCreated:
			// Registration succeeded: the dataset must be queryable and
			// agree with a direct parse of the (possibly UTF-8-sanitized)
			// upload payload.
			var info DatasetInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
				t.Fatalf("201 with undecodable body %q: %v", rec.Body, err)
			}
			var up registerRequest
			if err := json.Unmarshal(body, &up); err != nil {
				t.Fatal(err)
			}
			in, err := relatrust.ReadCSV(strings.NewReader(up.CSV))
			if err != nil {
				t.Fatalf("server accepted CSV a direct parse rejects: %v", err)
			}
			if info.Tuples != in.N() || len(info.Attributes) != in.Schema.Width() {
				t.Fatalf("registered shape %dx%d, direct parse %dx%d",
					info.Tuples, len(info.Attributes), in.N(), in.Schema.Width())
			}
			getReq := httptest.NewRequest(http.MethodGet, "/v1/datasets/"+name, nil)
			getRec := httptest.NewRecorder()
			srv.ServeHTTP(getRec, getReq)
			if getRec.Code != http.StatusOK {
				t.Fatalf("registered dataset not retrievable: %d", getRec.Code)
			}
			delReq := httptest.NewRequest(http.MethodDelete, "/v1/datasets/"+name, nil)
			delRec := httptest.NewRecorder()
			srv.ServeHTTP(delRec, delReq)
			if delRec.Code != http.StatusNoContent {
				t.Fatalf("cleanup delete failed: %d", delRec.Code)
			}
		default:
			// Rejected: the error must be a structured body with a code.
			var eb ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code == "" {
				t.Fatalf("status %d with unstructured body %q", rec.Code, rec.Body)
			}
		}
	})
}

// FuzzDatasetNameMetrics: every name registration accepts renders into
// /metrics as sample lines a scrape parser accepts, and each dataset label
// unescapes back to the name.
func FuzzDatasetNameMetrics(f *testing.F) {
	for _, s := range []string{"paper", `a"b`, "z\u200bz", "ünï", "a\u2028b", "a\rb", "\xff", "a\u0085b", "\ufffd"} {
		f.Add(s)
	}
	in, err := relatrust.ReadCSV(strings.NewReader("A,B\n1,2\n"))
	if err != nil {
		f.Fatal(err)
	}
	srv := New(Options{Logger: quietLogger()})
	f.Fuzz(func(t *testing.T, name string) {
		if validateDatasetName(name) != nil {
			return
		}
		defer srv.Close()
		if _, err := srv.Register(name, in); err != nil {
			t.Fatalf("register %q: %v", name, err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if labelled := checkExposition(t, rec.Body.String(), name); labelled == 0 {
			t.Fatalf("no per-dataset sample for %q", name)
		}
	})
}

// checkExposition parses every sample line of a /metrics body and checks
// that each dataset label equals name. It returns the number of labelled
// samples.
func checkExposition(t *testing.T, body, name string) int {
	t.Helper()
	labelled := 0
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		labels, err := parseSample(line)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		if v, ok := labels["dataset"]; ok {
			labelled++
			if v != name {
				t.Fatalf("dataset label %q, want %q (line %q)", v, name, line)
			}
		}
	}
	return labelled
}

// parseSample parses one sample line of the text exposition format
// (version 0.0.4): a metric name, an optional {name="value",...} label
// set whose values use only the \\, \" and \n escapes, one space, and a
// float value. It returns the unescaped label values.
func parseSample(line string) (map[string]string, error) {
	if !utf8.ValidString(line) {
		return nil, fmt.Errorf("invalid UTF-8")
	}
	ident := func(s string, colon bool) int {
		i := 0
		for i < len(s) {
			c := s[i]
			if c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || colon && c == ':' || i > 0 && c >= '0' && c <= '9' {
				i++
				continue
			}
			break
		}
		return i
	}
	n := ident(line, true)
	if n == 0 {
		return nil, fmt.Errorf("no metric name")
	}
	rest := line[n:]
	labels := map[string]string{}
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for !strings.HasPrefix(rest, "}") {
			k := ident(rest, false)
			if k == 0 || !strings.HasPrefix(rest[k:], `="`) {
				return nil, fmt.Errorf("malformed label at %q", rest)
			}
			key := rest[:k]
			rest = rest[k+2:]
			var v strings.Builder
			for {
				if rest == "" {
					return nil, fmt.Errorf("unterminated label value")
				}
				c := rest[0]
				rest = rest[1:]
				if c == '"' {
					break
				}
				if c != '\\' {
					v.WriteByte(c)
					continue
				}
				if rest == "" {
					return nil, fmt.Errorf("dangling escape")
				}
				switch rest[0] {
				case '\\', '"':
					v.WriteByte(rest[0])
				case 'n':
					v.WriteByte('\n')
				default:
					return nil, fmt.Errorf("undefined escape \\%c", rest[0])
				}
				rest = rest[1:]
			}
			labels[key] = v.String()
			rest = strings.TrimPrefix(rest, ",")
		}
		rest = rest[1:]
	}
	value, ok := strings.CutPrefix(rest, " ")
	if !ok {
		return nil, fmt.Errorf("no space before the value")
	}
	if _, err := strconv.ParseFloat(value, 64); err != nil {
		return nil, fmt.Errorf("value: %v", err)
	}
	return labels, nil
}
