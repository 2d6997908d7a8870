// Command bench is relatrust's one-command benchmark. It starts an
// in-process relatrustd (server.New behind an httptest listener on loopback
// TCP), uploads a CSV generated from -seed, drives one workload's traffic
// over at most two connections, checks every answer against in-process
// oracles, and prints every metric by name with its unit and sample count.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload census-frontier --seed 42 --seconds 30 --trace 0
//
// or, inside bench/, go run . -workload census-frontier -seed 42.
//
// Output: one line holding the full report (environment stamp, every
// metric with its sample count, failures), then, as the last line, the
// result: {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics, or with -trace 1 the traced replay's per-layer
// metrics. The exit code is non-zero when any check failed.
//
// -compare a.json b.json reads saved outputs of several runs per side and
// prints one row per (workload, metric) pair: better, worse, unchanged or
// unresolved under BENCHMARK.json's bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 3

// e2eMetrics are the metrics a plain run reports on its last line; every
// workload reports all of them (see README.md for what op_ms times).
var e2eMetrics = []string{
	"setup_s", "op_ms.p50", "op_ms.p90", "first_row_ms.p50", "first_row_ms.p90", "peak_rss_mb",
}

// layerMetrics are the metrics a traced run reports on its last line.
// Layer times appear as shares of replayed request time: a layer a
// workload never calls reads 0 there, which as a time would look like a
// stuck clock. The absolute milliseconds are in the full report.
var layerMetrics = []string{
	"replay.op_ms.p50", "server.overhead_ms", "relation.csv_decode_ms",
	"trace.overhead_frac", "trace.coverage_pct",
	"search.share_pct", "weights.share_pct", "conflict.share_pct", "components.share_pct",
	"repair.share_pct", "report.share_pct", "live.share_pct", "store.share_pct",
	"discovery.share_pct", "server.share_pct", "unattributed.share_pct",
	"search.visited", "search.generated", "search.gc_calls", "weights.calls",
	"conflict.refine_steps", "conflict.cache_hit_pct",
	"components.evals", "components.memo_hit_pct", "components.parallel_evals",
	"repair.cells_changed", "live.components_dirtied", "store.bytes_written",
	"discovery.candidates", "discovery.fds",
}

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	// trace is "0", "1", or a path to write the spans to (implies "1").
	trace string
	// n overrides the workload's row count and requests bounds the primary
	// operations per phase (0: run for seconds), for the smoke test's toy
	// runs.
	n, requests int
	// workDir holds the run's scratch directories (stores).
	workDir string
}

func (o options) traced() bool { return o.trace != "0" }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: census-frontier, blocked-frontier, live-mixed or census-discover")
	fs.Int64Var(&o.seed, "seed", 42, "seed the inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 30, "how long the run measures")
	fs.StringVar(&o.trace, "trace", "0", `"1" reports the traced replay's per-layer metrics; a path also writes its spans there`)
	fs.StringVar(&o.workDir, "workdir", ".bench_build", "directory for the run's scratch files")
	compare := fs.Bool("compare", false, "compare two files of saved outputs: -compare a.json b.json")
	bounds := fs.String("bounds", "BENCHMARK.json", "benchmark definition holding the regression bounds (with -compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files")
			return 2
		}
		if err := compareFiles(*bounds, fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	rep, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.traced() && o.trace != "1" {
		if err := writeSpans(o.trace, rep.spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	names := e2eMetrics
	if o.traced() {
		names = layerMetrics
	}
	res, err := rep.result(names)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, v := range []any{rep, res} {
		b, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", b)
	}
	if !res.Correct {
		for _, n := range rep.Failures {
			fmt.Fprintln(stderr, "bench: check failed:", n)
		}
		return 1
	}
	return 0
}

// runReport is the full account of one run, printed before the result line.
type runReport struct {
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Traced    bool        `json:"traced"`
	Rows      int         `json:"rows"`
	Env       environment `json:"env"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Failures  []string    `json:"failures,omitempty"`
	Metrics   metrics     `json:"metrics"`

	spans []span
}

// result is the last output line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result selects the named metrics; every one must have been measured.
func (r *runReport) result(names []string) (result, error) {
	res := result{
		Correct:   r.Failed == 0 && r.Attempted > 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   make(map[string]valueUnit, len(names)),
	}
	for _, name := range names {
		m, ok := r.Metrics[name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", name)
		}
		res.Metrics[name] = valueUnit{m.Value, m.Unit}
	}
	return res, nil
}

// runWorkload generates the inputs, sets up setupRuns times, measures the
// traffic and, when traced, replays it with spans.
func runWorkload(o options) (*runReport, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	n := o.n
	if n == 0 {
		n = w.n
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(o.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	x, err := w.build(o.seed, n)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", w.name, err)
	}
	r := &runner{w: w, x: x, workDir: workDir}
	total := time.Duration(o.seconds * float64(time.Second))
	measured := total
	if o.traced() {
		measured = total / 2
	}
	if w.kind == kindLive {
		if err := liveBatches(x, o.seed, r.commitCount(measured, o.requests)); err != nil {
			return nil, err
		}
	}

	m := metrics{}
	var setups []float64
	var tg *target
	var ref []byte
	for i := 0; i < setupRuns; i++ {
		if tg != nil {
			tg.close()
		}
		settle()
		var d time.Duration
		if tg, d, ref, err = r.setup(); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	m["setup_s"] = metric{Value: quantile(setups, 0.5), Unit: "s", Samples: len(setups)}
	settle()
	ph := r.measure(tg, ref, measured, o.requests)
	tg.close()
	e2e(m, ph)

	rep := &runReport{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced(), Rows: n, Env: stamp()}
	if o.traced() {
		if rep.spans, err = r.traced(m, ref, total/4, o.requests); err != nil {
			return nil, err
		}
	}
	m["peak_rss_mb"] = metric{Value: peakRSSMB(), Unit: "MiB"}
	rep.Attempted, rep.Failed, rep.Failures = r.check.attempted, r.check.failed, r.check.notes
	m["failed_frac"] = metric{Value: float64(rep.Failed) / float64(max(rep.Attempted, 1)), Unit: "ratio", Samples: rep.Attempted}
	rep.Metrics = m
	return rep, nil
}

// e2e records a measured phase's end-to-end timings.
func e2e(m metrics, ph phase) {
	m.addTiming("op_ms", "ms", ph.opMS())
	m.addTiming("first_row_ms", "ms", ph.firstRowMS())
	read := make([]float64, len(ph.reads))
	for i, s := range ph.reads {
		read[i] = ms(s.end.Sub(s.sent))
	}
	m.addTiming("read_ms", "ms", read)
	if ph.late == nil {
		return
	}
	late := lateMS(ph.late)
	behind := 0
	for _, l := range late {
		if l > 1 {
			behind++
		}
	}
	m["open_loop.late_ms.p50"] = metric{Value: quantile(late, 0.5), Unit: "ms", Samples: len(late)}
	m["open_loop.late_ms.max"] = metric{Value: quantile(late, 1), Unit: "ms", Samples: len(late)}
	m["open_loop.late_frac"] = metric{Value: float64(behind) / float64(len(late)), Unit: "ratio", Samples: len(late)}
}

func lateMS(late []time.Duration) []float64 {
	out := make([]float64, len(late))
	for i, l := range late {
		out[i] = ms(l)
	}
	return out
}

// traced replays the workload in-process twice — spans off for d, then
// spans on for the same number of primary operations — and derives the
// per-layer metrics from the second.
func (r *runner) traced(m metrics, ref []byte, d time.Duration, limit int) ([]span, error) {
	settle()
	off, phOff, err := r.replayPhase(nil, ref, d, limit)
	if err != nil {
		return nil, err
	}
	decodeOff := off.decode
	count := len(phOff.ops)
	if count == 0 {
		return nil, fmt.Errorf("untraced replay completed no operation")
	}
	settle()
	tr := newTracer()
	on, phOn, err := r.replayPhase(tr, ref, 0, count)
	if err != nil {
		return nil, err
	}
	spans := tr.spans
	analyze(spans)
	layerReport(spans, m)
	on.countMetrics(m)

	if len(phOn.late) > 0 {
		queue := lateMS(phOn.late)
		m["live.queue_ms.p50"] = metric{Value: quantile(queue, 0.5), Unit: "ms", Samples: len(queue)}
		m["live.queue_ms.max"] = metric{Value: quantile(queue, 1), Unit: "ms", Samples: len(queue)}
	}
	opOff, opOn := phOff.opMS(), phOn.opMS()
	m["replay.op_ms.p50"] = metric{Value: quantile(opOff, 0.5), Unit: "ms", Samples: len(opOff)}
	m["server.overhead_ms"] = metric{Value: m["op_ms.p50"].Value - quantile(opOff, 0.5), Unit: "ms", Samples: len(opOff)}
	m["trace.overhead_frac"] = metric{Value: sum(opOn)/float64(len(opOn))/(sum(opOff)/float64(len(opOff))) - 1, Unit: "ratio", Samples: len(opOn)}
	decode := []float64{ms(decodeOff), ms(on.decode)}
	m["relation.csv_decode_ms"] = metric{Value: quantile(decode, 0.5), Unit: "ms", Samples: len(decode)}
	return spans, nil
}

// countMetrics records the phase's per-layer work counts, per replayed
// operation of the kind that does the work.
func (p *replayer) countMetrics(m metrics) {
	c := &p.c
	per := func(v int64, ops int) float64 {
		if ops == 0 {
			return 0
		}
		return float64(v) / float64(ops)
	}
	pct := func(part, whole int64) float64 {
		if whole == 0 {
			return 0
		}
		return 100 * float64(part) / float64(whole)
	}
	count := func(name string, v float64, samples int) {
		m[name] = metric{Value: v, Unit: "count", Samples: samples}
	}
	count("search.visited", per(c.visited, c.sweeps), c.sweeps)
	count("search.generated", per(c.generated, c.sweeps), c.sweeps)
	count("search.gc_calls", per(c.gcCalls, c.sweeps), c.sweeps)
	count("weights.calls", per(c.weightCalls, c.sweeps), c.sweeps)
	count("conflict.refine_steps", per(c.cover.RefineSteps, c.sweeps), c.sweeps)
	m["conflict.cache_hit_pct"] = metric{Value: pct(c.cover.Hits+c.cover.ParentHits, c.cover.Queries), Unit: "%", Samples: c.sweeps}
	cw := c.componentWork()
	count("components.evals", per(cw.Evals, c.sweeps), c.sweeps)
	count("components.parallel_evals", per(cw.Parallel, c.sweeps), c.sweeps)
	m["components.memo_hit_pct"] = metric{Value: pct(cw.MemoHits, cw.MemoHits+cw.Evals), Unit: "%", Samples: c.sweeps}
	count("repair.cells_changed", per(c.cellsChanged, c.sweeps), c.sweeps)
	count("live.components_dirtied", per(c.dirtied, c.commits), c.commits)
	m["store.bytes_written"] = metric{Value: per(c.bytesWritten, c.commits), Unit: "bytes", Samples: c.commits}
	count("discovery.candidates", per(c.candidates, c.discovers), c.discovers)
	count("discovery.fds", per(c.fds, c.discovers), c.discovers)
	for level, xs := range c.levels {
		m[fmt.Sprintf("discovery.level_ms.L%d", level)] = metric{Value: quantile(xs, 0.5), Unit: "ms", Samples: len(xs)}
	}
}
