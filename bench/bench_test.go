package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestSmoke runs every workload traced at toy size and checks the report:
// every metric the result lines carry is present with a unit, nothing
// failed, and the spans nest with non-negative self times.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runWorkload(options{
				workload: w.name, seed: 7, seconds: 30, trace: "1",
				n: 500, requests: 4, workDir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range append(slices.Clone(e2eMetrics), layerMetrics...) {
				if m, ok := rep.Metrics[name]; !ok || m.Unit == "" {
					t.Errorf("metric %s missing or without unit: %+v", name, m)
				}
			}
			if f := rep.Metrics["failed_frac"].Value; f != 0 || rep.Failed != 0 {
				t.Errorf("failed_frac = %v, failures %v", f, rep.Failures)
			}
			checkSpans(t, rep.spans)
		})
	}
}

func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Self < 0 || s.End < s.Start {
			t.Errorf("span %+v: negative duration or self time", s)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			t.Errorf("span %+v: parent missing", s)
		case p.Req != s.Req:
			t.Errorf("span %+v: parent %+v belongs to another request", s, p)
		case s.Start < p.Start || s.End > p.End:
			t.Errorf("span %+v: outside its parent %+v", s, p)
		}
	}
}

// TestDefinitionMatches keeps BENCHMARK.json's metric lists and the result
// lines the benchmark prints in step.
func TestDefinitionMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(def.EndToEnd); !slices.Equal(got, e2eMetrics) {
		t.Errorf("BENCHMARK.json end_to_end = %v, benchmark prints %v", got, e2eMetrics)
	}
	if got := names(def.PerLayer); !slices.Equal(got, layerMetrics) {
		t.Errorf("BENCHMARK.json per_layer = %v, benchmark prints %v", got, layerMetrics)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4),
// the spread definition the benchmark's bounds are checked against.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
