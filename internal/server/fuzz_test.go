package server

// Native fuzz targets for the service's untrusted decode paths: the JSON
// repair- and discover-request bodies and the CSV dataset upload. Plain `go test`
// replays the f.Add seeds plus the checked-in corpora under testdata/fuzz
// (CI's fuzz-regression step); `go test -fuzz FuzzX` explores further.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
		req, err := decodeRepairRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted requests must survive a marshal round trip: the server
		// logs and echoes request fields, so re-encoding cannot fail.
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request fails to re-marshal: %v", err)
		}
		again, err := decodeRepairRequest(bytes.NewReader(raw))
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
		req, err := decodeDiscoverRequest(bytes.NewReader(data))
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
		again, err := decodeDiscoverRequest(bytes.NewReader(raw))
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
