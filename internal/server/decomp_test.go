package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestRepairStreamDecompositionByteIdentical pins the retired engine
// knobs at the wire: a request carrying no_decomposition and
// no_partition_cache is accepted and streams a frontier byte-identical to
// the same request without them, and the subsequent /statz and /metrics
// expose the component counters of the last finished sweep.
func TestRepairStreamDecompositionByteIdentical(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	registerCities(t, ts.URL)

	sweep := func(retired bool) string {
		resp := postJSON(t, ts.URL+"/v1/repair", RepairRequest{
			Dataset:          "cities",
			FDs:              multiFDs,
			Workers:          4,
			NoDecomposition:  retired,
			NoPartitionCache: retired,
			IncludeChanges:   true,
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

	withKnobs := sweep(true)
	plain := sweep(false)
	if withKnobs != plain {
		t.Fatalf("retired knobs changed the stream:\nwithout:\n%s\nwith:\n%s", plain, withKnobs)
	}
	if !strings.Contains(plain, "\n") {
		t.Fatal("stream carried no frames")
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

// TestDiscoverThenRepairIgnoresRetiredKnobs: a discover_then_repair
// request carrying no_decomposition and no_partition_cache is accepted
// and streams bytes identical to the same request without them.
func TestDiscoverThenRepairIgnoresRetiredKnobs(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	registerPaper(t, ts.URL)

	req := DiscoverRequest{Dataset: "paper", MaxLHS: 2, MaxError: 0.3, Mode: modeDiscoverThenRepair, Seed: 9}
	status, plain := goldenBody(t, http.MethodPost, ts.URL+"/v1/discover", req, "")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, plain)
	}
	req.NoDecomposition, req.NoPartitionCache = true, true
	status, withKnobs := goldenBody(t, http.MethodPost, ts.URL+"/v1/discover", req, "")
	if status != http.StatusOK {
		t.Fatalf("status %d with the retired knobs: %s", status, withKnobs)
	}
	if string(plain) != string(withKnobs) {
		t.Fatalf("retired knobs changed the stream:\nwithout:\n%s\nwith:\n%s", plain, withKnobs)
	}
	if !strings.Contains(string(plain), `"sigma"`) || strings.Count(string(plain), "\n") < 3 {
		t.Fatalf("stream lacks the mining and repair sections:\n%s", plain)
	}
}
