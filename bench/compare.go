package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// definition is the part of BENCHMARK.json -compare needs.
type definition struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runs maps workload → metric → the values of every saved run.
type runs map[string]map[string][]float64

// readRuns collects the report lines (those naming a workload) of a file of
// saved outputs; other lines are skipped.
func readRuns(path string) (runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := runs{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var rep runReport
		if json.Unmarshal(sc.Bytes(), &rep) != nil || rep.Workload == "" {
			continue
		}
		if out[rep.Workload] == nil {
			out[rep.Workload] = map[string][]float64{}
		}
		for name, m := range rep.Metrics {
			out[rep.Workload][name] = append(out[rep.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// quartiles returns Q1, Q2, Q3 as Python's statistics.quantiles(xs, n=4)
// computes them (the "exclusive" method); fewer than two values repeat the
// only one.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		v := quantile(s, 0.5)
		return v, v, v
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// verdict classifies b against a for one metric. worse: b's median is worse
// by more than the bound, and a's spread is within the bound or every b run
// is worse than every a run. better: b's median is better by more than a's
// spread and b wins at least nine in ten (a, b) pairs. unresolved: a's
// spread exceeds the bound. unchanged otherwise.
func verdict(a, b []float64, lowerBetter bool, bound float64) (delta float64, v string) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	delta = (mb - ma) / ma
	worse := delta
	if !lowerBetter {
		worse = -delta
	}
	wins, pairs := 0, 0
	for _, x := range a {
		for _, y := range b {
			pairs++
			if (lowerBetter && y < x) || (!lowerBetter && y > x) {
				wins++
			}
		}
	}
	sa := spread(a)
	switch {
	case worse > bound && (sa <= bound || wins == 0):
		return delta, "worse"
	case -worse > sa && 10*wins >= 9*pairs:
		return delta, "better"
	case sa > bound:
		return delta, "unresolved"
	}
	return delta, "unchanged"
}

// compareFiles prints one row per (workload, end-to-end metric) pair.
func compareFiles(boundsPath, aPath, bPath string, w io.Writer) error {
	raw, err := os.ReadFile(boundsPath)
	if err != nil {
		return err
	}
	var def definition
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("%s: %w", boundsPath, err)
	}
	a, err := readRuns(aPath)
	if err != nil {
		return err
	}
	b, err := readRuns(bPath)
	if err != nil {
		return err
	}
	var names []string
	for wl := range a {
		if b[wl] != nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no workload appears in both files")
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\truns\ta median\tb median\tdelta\ta spread\tbound\tverdict")
	for _, wl := range names {
		for _, m := range def.EndToEnd {
			xa, xb := a[wl][m.Name], b[wl][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			delta, v := verdict(xa, xb, m.Better == "lower", m.Bound)
			_, ma, _ := quartiles(xa)
			_, mb, _ := quartiles(xb)
			fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%.4g %s\t%.4g %s\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl, m.Name, len(xa), len(xb), ma, m.Unit, mb, m.Unit, 100*delta, 100*spread(xa), 100*m.Bound, v)
		}
	}
	return tw.Flush()
}
