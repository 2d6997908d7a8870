package repair

// ProgressKind names the moments of a trust-spectrum sweep a progress
// callback observes.
type ProgressKind int

const (
	// ProgressSweepStarted fires once when a range sweep begins; Tau is the
	// opening (largest) budget.
	ProgressSweepStarted ProgressKind = iota
	// ProgressTauFinished fires when a frontier point is finalized; Tau is
	// the budget the point was generated for and Repair is the point.
	ProgressTauFinished
	// ProgressTauStarted fires after each finalized point when the sweep
	// continues under the tightened budget Tau (which may end without
	// producing a further point).
	ProgressTauStarted
	// ProgressSweepFinished fires once when the sweep ends normally; it
	// carries the whole sweep's effort and the conflict decomposition.
	ProgressSweepFinished
)

// ProgressEvent is one observation of a long-running sweep, delivered to
// Config.Progress. Callbacks run synchronously on the sweeping goroutine
// between search steps: they must be fast and must not call back into the
// session.
type ProgressEvent struct {
	Kind ProgressKind
	// Tau is the cell-change budget the event refers to (see the kinds).
	Tau int
	// Repair is the finalized frontier point (ProgressTauFinished only).
	Repair *Repair
	// Visited and Generated report the FD-search effort accumulated so far
	// (final totals on ProgressSweepFinished).
	Visited, Generated int
	// Components and LargestComponent describe the conflict-hypergraph
	// decomposition of the analyzed instance (component count and biggest
	// component's tuple count); ComponentsParallel counts per-component
	// cover evaluations dispatched across the worker pool. Meaningful on
	// ProgressSweepFinished.
	Components         int
	LargestComponent   int
	ComponentsParallel int64
	// Generation is the mutation generation of the dataset snapshot the
	// sweep runs against (session.Engine.Generation); 0 outside the live
	// mutation tier. Set on every event, so observers of a long sweep can
	// tell which snapshot it answers for after later mutations have moved
	// the dataset on.
	Generation int64
}

// progress delivers an event to the configured callback, if any.
func (s *Session) progress(ev ProgressEvent) {
	if s.cfg.Progress != nil {
		ev.Generation = s.eng.Generation()
		s.cfg.Progress(ev)
	}
}
