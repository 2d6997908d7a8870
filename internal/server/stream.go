package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"

	"relatrust"
)

// stream frames the rows of one streamed response (/v1/repair,
// /v1/discover, or a job stream) and flushes every frame immediately, so
// each Pareto point or mined FD reaches the client the moment it lands.
// Two framings:
//
//   - NDJSON (default, application/x-ndjson): one JSON object per line —
//     data rows only; an error mid-sweep is a final {"error": ...} line,
//     and a clean EOF without one means the sweep completed.
//   - SSE (Accept: text/event-stream): one event per row, named by the
//     sweep's kind ("repair", or "fd" and "sigma"), carrying the same JSON;
//     a terminal "done" event on success, an "error" event on failure.
type stream struct {
	w   http.ResponseWriter
	rc  *http.ResponseController
	sse bool
}

// wantSSE reports whether the request asked for an event stream.
func wantSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// newStream writes the response headers and returns the framer. The
// status is committed here: stream errors after this point travel in-band.
func newStream(w http.ResponseWriter, r *http.Request) *stream {
	st := &stream{w: w, rc: http.NewResponseController(w), sse: wantSSE(r)}
	if st.sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	// Proxies that buffer streaming responses (nginx) honor this opt-out.
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	_ = st.rc.Flush()
	return st
}

// write emits one encoded frame and flushes it: NDJSON appends the
// newline json.Encoder would, SSE wraps the same payload in an event of
// the given name. Request streams and job streams write every frame
// through here, so a job replays exactly the bytes its kind's request
// stream sends.
func (st *stream) write(event string, payload []byte) error {
	if st.sse {
		if _, err := st.w.Write([]byte("event: " + event + "\ndata: " + string(payload) + "\n\n")); err != nil {
			return err
		}
		return st.rc.Flush()
	}
	// Two writes, not append(payload, '\n'): a job's frame bytes are shared
	// with its in-memory log and must never be grown in place.
	if _, err := st.w.Write(payload); err != nil {
		return err
	}
	if _, err := st.w.Write([]byte{'\n'}); err != nil {
		return err
	}
	return st.rc.Flush()
}

// emit is the emit of a request stream running a sweep of kind k: each
// frame goes out under the kind's event name, and a failed write means
// the client is gone, which cancels the sweep.
func (st *stream) emit(k *sweepKind) func(frame []byte) error {
	return func(frame []byte) error {
		if err := st.write(k.event(frame), frame); err != nil {
			return context.Canceled
		}
		return nil
	}
}

// end closes a request stream: the in-band error frame when the sweep
// failed, otherwise the SSE "done" event (NDJSON ends at EOF).
func (st *stream) end(rows int, err error, schema *relatrust.Schema) {
	if err != nil {
		_, body := mapError(err, schema)
		st.fail(body)
		return
	}
	st.done(rows)
}

// fail emits the in-band error frame.
func (st *stream) fail(body ErrorBody) {
	payload, _ := json.Marshal(body)
	_ = st.write("error", payload)
}

// done closes an SSE stream with the terminal event (NDJSON ends at EOF).
func (st *stream) done(rows int) {
	if !st.sse {
		return
	}
	payload, _ := json.Marshal(struct {
		Rows int `json:"rows"`
	}{rows})
	_ = st.write("done", payload)
}
