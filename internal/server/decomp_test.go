package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// retiredKnobs are the engine knobs the wire once accepted and ignored;
// the strict decoder now rejects them as unknown fields.
var retiredKnobs = []string{"no_partition_cache", "no_decomposition"}

// TestRepairStreamDecompositionByteIdentical pins the decomposed sweep at
// the wire: a four-worker frontier stream is byte-identical to the
// one-worker stream, each retired engine knob is a 400 unknown field, and
// the subsequent /statz and /metrics expose the component counters of the
// last finished sweep.
func TestRepairStreamDecompositionByteIdentical(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	registerCities(t, ts.URL)

	sweep := func(workers int) string {
		resp := postJSON(t, ts.URL+"/v1/repair", RepairRequest{
			Dataset:        "cities",
			FDs:            multiFDs,
			Workers:        workers,
			IncludeChanges: true,
		})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("repair: status %d, body %s", resp.StatusCode, b)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	parallel := sweep(4)
	inline := sweep(1)
	if parallel != inline {
		t.Fatalf("worker count changed the stream:\n1 worker:\n%s\n4 workers:\n%s", inline, parallel)
	}
	if !strings.Contains(inline, "\n") {
		t.Fatal("stream carried no frames")
	}
	for _, knob := range retiredKnobs {
		resp := postJSON(t, ts.URL+"/v1/repair", map[string]any{"dataset": "cities", "fds": multiFDs, knob: true})
		if d := wantErrorCode(t, resp, http.StatusBadRequest, codeBadRequest); !strings.Contains(d.Message, knob) {
			t.Errorf("%s: error %q does not name the unknown field", knob, d.Message)
		}
	}

	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var statz Statz
	decodeBody(t, resp, &statz)
	if len(statz.Datasets) != 1 {
		t.Fatalf("statz datasets = %d, want 1", len(statz.Datasets))
	}
	d := statz.Datasets[0]
	if d.Components <= 0 || d.LargestComponent <= 0 {
		t.Fatalf("statz after decomposed sweep: components=%d largest_component=%d, want both > 0",
			d.Components, d.LargestComponent)
	}
	// The raw JSON keys are part of the wire format.
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"components"`, `"largest_component"`, `"components_parallel"`} {
		if !strings.Contains(string(raw), key) {
			t.Fatalf("dataset statz JSON misses %s: %s", key, raw)
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"relatrust_conflict_components",
		"relatrust_conflict_largest_component_tuples",
		"relatrust_component_parallel_evals_total",
	} {
		if !strings.Contains(string(metrics), name+`{dataset="cities"}`) {
			t.Fatalf("/metrics misses %s for the dataset:\n%s", name, metrics)
		}
	}
}

// TestDiscoverThenRepairRejectsRetiredKnobs: a discover_then_repair
// request carrying a retired engine knob is a 400 unknown field, and the
// same request without it still streams both sections.
func TestDiscoverThenRepairRejectsRetiredKnobs(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	registerPaper(t, ts.URL)

	req := DiscoverRequest{Dataset: "paper", MaxLHS: 2, MaxError: 0.3, Mode: modeDiscoverThenRepair, Seed: 9}
	status, plain := goldenBody(t, http.MethodPost, ts.URL+"/v1/discover", req, "")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, plain)
	}
	if !strings.Contains(string(plain), `"sigma"`) || strings.Count(string(plain), "\n") < 3 {
		t.Fatalf("stream lacks the mining and repair sections:\n%s", plain)
	}
	for _, knob := range retiredKnobs {
		resp := postJSON(t, ts.URL+"/v1/discover", map[string]any{
			"dataset": "paper", "max_lhs": 2, "max_error": 0.3, "mode": modeDiscoverThenRepair, "seed": 9, knob: true,
		})
		if d := wantErrorCode(t, resp, http.StatusBadRequest, codeBadRequest); !strings.Contains(d.Message, knob) {
			t.Errorf("%s: error %q does not name the unknown field", knob, d.Message)
		}
	}
}
