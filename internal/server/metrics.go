package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// handleMetrics renders the /statz counters in the Prometheus text
// exposition format (version 0.0.4), so the daemon plugs into a standard
// scrape config with no client library. Per-dataset series carry a
// dataset label; dataset names are emitted in sorted order and the label
// value is escaped per the format's rules, so output for a fixed registry
// state is deterministic (golden-tested). Series named *_total are
// counters; the rest are gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	body := s.statzBody()
	var b strings.Builder

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %s\n",
			name, help, name, metricType(name), name, formatMetric(v))
	}
	gauge("relatrust_uptime_seconds", "Seconds since the server started.", body.UptimeSeconds)
	gauge("relatrust_datasets", "Registered datasets.", float64(body.Sessions))
	gauge("relatrust_warm_sessions", "Datasets currently holding a warm session.", float64(body.WarmSessions))
	gauge("relatrust_sessions_evicted_total", "Warm sessions evicted under MaxWarmSessions.", float64(body.SessionsEvicted))
	gauge("relatrust_panics_recovered_total", "Panics contained by the recovery layers.", float64(body.PanicsRecovered))

	gauge("relatrust_jobs_active", "Jobs currently running.", float64(body.Jobs.Active))
	gauge("relatrust_jobs_completed", "Jobs whose frontier completed.", float64(body.Jobs.Completed))
	gauge("relatrust_jobs_failed", "Jobs that ended in an error.", float64(body.Jobs.Failed))
	gauge("relatrust_jobs_cancelled", "Jobs cancelled by request or dataset deletion.", float64(body.Jobs.Cancelled))
	gauge("relatrust_jobs_resumed_total", "Job sweeps resumed from a checkpoint.", float64(body.Jobs.Resumed))
	gauge("relatrust_jobs_coalesced_total", "Job submissions answered by an existing job.", float64(body.Jobs.Coalesced))
	gauge("relatrust_job_checkpoint_bytes_total", "Bytes appended to durable job result logs.", float64(body.Jobs.CheckpointBytes))
	gauge("relatrust_job_results_evicted_bytes_total", "Result-log bytes evicted under MaxJobResultsBytes.", float64(body.Jobs.ResultsEvictedBytes))

	if body.Store != nil {
		gauge("relatrust_store_saves_total", "Dataset snapshots written.", float64(body.Store.Saves))
		gauge("relatrust_store_loads_total", "Dataset snapshots loaded.", float64(body.Store.Loads))
		gauge("relatrust_store_quarantined_total", "Corrupt snapshots quarantined.", float64(body.Store.Quarantined))
	}

	perDataset := []struct {
		name string
		help string
		get  func(DatasetStatz) float64
	}{
		{"relatrust_dataset_tuples", "Tuples in the dataset.", func(d DatasetStatz) float64 { return float64(d.Tuples) }},
		{"relatrust_active_sweeps", "Sweeps currently holding a slot.", func(d DatasetStatz) float64 { return float64(d.ActiveSweeps) }},
		{"relatrust_sweeps_started_total", "Sweeps admitted.", func(d DatasetStatz) float64 { return float64(d.SweepsStarted) }},
		{"relatrust_sweeps_finished_total", "Sweeps completed cleanly.", func(d DatasetStatz) float64 { return float64(d.SweepsFinished) }},
		{"relatrust_sweeps_cancelled_total", "Sweeps cancelled by disconnect or deadline.", func(d DatasetStatz) float64 { return float64(d.SweepsCancelled) }},
		{"relatrust_sweeps_failed_total", "Sweeps failed by an error or recovered panic.", func(d DatasetStatz) float64 { return float64(d.SweepsFailed) }},
		{"relatrust_sweeps_shed_total", "Sweeps shed with 429 under load.", func(d DatasetStatz) float64 { return float64(d.SweepsShed) }},
		{"relatrust_rows_streamed_total", "Frontier rows streamed to clients.", func(d DatasetStatz) float64 { return float64(d.RowsStreamed) }},
		{"relatrust_conflict_components", "Conflict-hypergraph components of the last finished sweep.", func(d DatasetStatz) float64 { return float64(d.Components) }},
		{"relatrust_conflict_largest_component_tuples", "Tuples in the largest conflict component of the last finished sweep.", func(d DatasetStatz) float64 { return float64(d.LargestComponent) }},
		{"relatrust_component_parallel_evals_total", "Per-component cover evaluations dispatched across the worker pool, summed over the sweeps sharing the last finished sweep's conflict analysis; restarts when a new analysis is built.", func(d DatasetStatz) float64 { return float64(d.ComponentsParallel) }},
		{"relatrust_session_acquires_total", "Analyses handed out by the shared session.", func(d DatasetStatz) float64 { return float64(d.SessionAcquires) }},
		{"relatrust_session_builds_total", "Analyses built from scratch by the shared session.", func(d DatasetStatz) float64 { return float64(d.SessionBuilds) }},
		{"relatrust_dataset_generation", "Current mutation generation of the dataset.", func(d DatasetStatz) float64 { return float64(d.Generation) }},
		{"relatrust_mutations_applied_total", "Row operations applied by committed mutation batches.", func(d DatasetStatz) float64 { return float64(d.MutationsApplied) }},
		{"relatrust_components_dirtied_total", "Conflict components whose memoized cover state mutations invalidated.", func(d DatasetStatz) float64 { return float64(d.ComponentsDirtied) }},
	}
	for _, m := range perDataset {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, metricType(m.name))
		// %q escapes backslash and quote exactly as the exposition format
		// wants; newlines cannot occur in dataset names by validation.
		for _, d := range body.Datasets {
			fmt.Fprintf(&b, "%s{dataset=%q} %s\n", m.name, d.Name, formatMetric(m.get(d)))
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}

// metricType returns the exposition type of a series: the format reserves
// the _total suffix for counters.
func metricType(name string) string {
	if strings.HasSuffix(name, "_total") {
		return "counter"
	}
	return "gauge"
}

// formatMetric renders a sample value the way Prometheus expects: integral
// values without an exponent, everything else in Go's shortest form.
func formatMetric(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
