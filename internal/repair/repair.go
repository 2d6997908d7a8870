package repair

import (
	"context"
	"fmt"

	"relatrust/internal/conflict"
	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/search"
	"relatrust/internal/session"
	"relatrust/internal/weights"
)

// Repair is one suggested repair (Σ′, I′): the modified FD set, the
// repaired V-instance, and the bookkeeping that places the suggestion on
// the relative-trust spectrum.
type Repair struct {
	// Sigma is the modified FD set Σ′ ∈ S(Σ).
	Sigma fd.Set
	// Ext is Δc(Σ, Σ′), the per-FD LHS extensions.
	Ext search.State
	// FDCost is dist_c(Σ, Σ′) under the configured weighting.
	FDCost float64
	// Data is the materialized data repair with I′ ⊨ Σ′.
	Data *DataRepair
	// Tau is the threshold this repair was generated for.
	Tau int
	// DeltaP is δP(Σ′, I) = α·|C2opt|, the guaranteed upper bound on cell
	// changes; Data.NumChanges() never exceeds it.
	DeltaP int
	// Stats carries the FD-search effort.
	Stats search.Stats
}

// String summarizes the repair for logs and CLIs.
func (r *Repair) String() string {
	return fmt.Sprintf("τ=%d: Σ'=%s, dist_c=%.3g, δP=%d, cell changes=%d",
		r.Tau, r.Sigma, r.FDCost, r.DeltaP, r.Data.NumChanges())
}

// Config carries the knobs shared by the repair entry points.
type Config struct {
	// Weights prices LHS extensions; nil means weights.AttrCount.
	Weights weights.Func
	// Search tunes the FD-modification search; the zero value selects A*
	// with the defaults (search.Options zero value — NewSearcher fills the
	// knobs in, so no sentinel detection is needed here).
	Search search.Options
	// Seed drives the randomized data-repair order (Algorithm 4).
	Seed int64
	// Engine, when non-nil, supplies the shared repair-session engine the
	// conflict analysis is acquired from, so repeated sessions over one
	// instance (Sampling-Repair's per-τ runs, facade calls sharing an
	// Options.Session) reuse warm cluster arenas instead of rebuilding
	// them. It must be bound to the same instance the session is opened
	// on. Nil builds a private single-use engine.
	Engine *session.Engine
	// Progress, when non-nil, observes sweep milestones: range sweeps
	// (StreamRange) report τ levels starting and finishing, search effort,
	// and the conflict decomposition; single-τ runs (Run) report start and
	// finish only. Callbacks run synchronously on the sweeping
	// goroutine — which means concurrently across goroutines when sessions
	// sharing one Config sweep in parallel.
	Progress func(ProgressEvent)
}

func (c Config) withDefaults() Config {
	if c.Weights == nil {
		c.Weights = weights.AttrCount{}
	}
	return c
}

// Session prepares an instance/FD pair for repeated repair calls: the
// conflict analysis and difference sets are computed once. Sessions are
// not safe for concurrent use. The analysis is acquired from the session
// engine (Config.Engine, or a private one); Close returns it for reuse.
type Session struct {
	In       *relation.Instance
	Sigma    fd.Set
	Analysis *conflict.Analysis
	Searcher *search.Searcher
	cfg      Config
	eng      *session.Engine
}

// NewSession analyzes the instance against the FD set. Validation errors
// are the structured ones of Validate (ErrEmptyFDSet, ErrEmptyInstance,
// *SchemaMismatchError).
func NewSession(in *relation.Instance, sigma fd.Set, cfg Config) (*Session, error) {
	if err := Validate(in, sigma); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	eng, err := session.For(cfg.Engine, in)
	if err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	an := eng.Acquire(sigma)
	if cfg.Search.Decomp == nil {
		// One decomposition per engine root, shared by every session over
		// it — repeated sweeps reuse the per-component memo.
		cfg.Search.Decomp = eng.CoverEvaluator(sigma)
	}
	return &Session{
		In:       in,
		Sigma:    sigma,
		Analysis: an,
		Searcher: search.NewSearcher(an, cfg.Weights, cfg.Search),
		cfg:      cfg,
		eng:      eng,
	}, nil
}

// Close releases the session's analysis back to the engine so its arenas
// and scratch serve the next session over the same instance and FD set.
// The session (and the searcher it exposes) must not be used afterwards;
// Close is idempotent and optional — an unclosed session is merely not
// recycled.
func (s *Session) Close() {
	if s.Analysis == nil {
		return
	}
	s.eng.Release(s.Analysis)
	s.Analysis = nil
	s.Searcher = nil
}

// DeltaPOriginal returns δP(Σ, I) — the number of cell changes that
// repairing the data alone is bounded by, and the denominator of τr.
func (s *Session) DeltaPOriginal() int { return s.Searcher.DeltaPOriginal() }

// TauFromRelative converts a relative threshold τr ∈ [0,1] into an absolute
// cell-change budget, rounding half away from zero so τr=100% always admits
// the pure-data repair.
func (s *Session) TauFromRelative(taur float64) int {
	if taur < 0 {
		taur = 0
	}
	return int(taur*float64(s.DeltaPOriginal()) + 0.5)
}

// Run implements Algorithm 1 (Repair_Data_FDs): it finds the FD repair
// closest to Σ whose δP is within tau, then materializes the data repair.
// It returns nil (the paper's (φ, φ)) when no FD relaxation fits the
// budget. Cancelling ctx aborts the search with context.Cause(ctx).
// Config.Progress observes the sweep's start and finish (single-τ runs
// have no intermediate trust levels).
func (s *Session) Run(ctx context.Context, tau int) (*Repair, error) {
	s.progress(ProgressEvent{Kind: ProgressSweepStarted, Tau: tau})
	res, err := s.Searcher.Find(ctx, tau)
	if err != nil {
		return nil, err
	}
	var r *Repair
	if res != nil {
		if r, err = s.materialize(res, tau); err != nil {
			return nil, err
		}
	}
	s.sweepFinished(tau)
	return r, nil
}

// StreamRange implements Algorithm 6 followed by data-repair
// materialization: one search pass finds the distinct FD repairs for
// every τ in [tauLow, tauHigh], and each is completed into a full (Σ′, I′)
// suggestion and handed to yield the moment its trust level is finalized,
// in decreasing τ. A streamed point's Repair.Stats carries the search
// effort accumulated up to its finalization; the last point carries the
// whole sweep's effort.
//
// An error returned by yield aborts the sweep and is returned verbatim,
// so callers can stop early with a private sentinel. Cancelling ctx
// aborts with context.Cause(ctx). Config.Progress observes the sweep's
// milestones (see ProgressEvent).
func (s *Session) StreamRange(ctx context.Context, tauLow, tauHigh int, yield func(*Repair) error) error {
	s.progress(ProgressEvent{Kind: ProgressSweepStarted, Tau: tauHigh})
	tau := tauHigh
	err := s.Searcher.FindRangeStream(ctx, tauLow, tauHigh, func(res *search.Result) error {
		r, err := s.materialize(res, tau)
		if err != nil {
			return err
		}
		s.progress(ProgressEvent{
			Kind: ProgressTauFinished, Tau: r.Tau, Repair: r,
			Visited: r.Stats.Visited, Generated: r.Stats.Generated,
		})
		tau = res.DeltaP - 1 // the next repair was found under this bound
		if tau >= tauLow {
			s.progress(ProgressEvent{Kind: ProgressTauStarted, Tau: tau})
		}
		return yield(r)
	})
	if err != nil {
		return err
	}
	s.sweepFinished(tau)
	return nil
}

// sweepFinished reports ProgressSweepFinished with the whole sweep's
// search effort and the conflict decomposition.
func (s *Session) sweepFinished(tau int) {
	final := s.Searcher.LastStats()
	cs := s.Searcher.ComponentStats()
	s.progress(ProgressEvent{
		Kind: ProgressSweepFinished, Tau: tau,
		Visited: final.Visited, Generated: final.Generated,
		Components: cs.Components, LargestComponent: cs.LargestComponent,
		ComponentsParallel: cs.ParallelEvals,
	})
}

// materialize runs the data-repair phase for a found FD modification,
// reusing the search's vertex cover so the δP ≤ τ guarantee carries over
// verbatim to the cell-change count. The cover comes from the session's
// component evaluator, which memoizes it per goal state: a served
// dataset's repeated sweeps share that evaluator, so a warm point refines
// no cluster.
func (s *Session) materialize(res *search.Result, tau int) (*Repair, error) {
	cover := s.cfg.Search.Decomp.Cover(s.Analysis, res.State)
	if len(cover) != res.CoverSize {
		return nil, fmt.Errorf("repair: internal error: the goal's cover has %d tuples, the search sized it at %d", len(cover), res.CoverSize)
	}
	data, err := RepairData(s.In, res.Sigma, cover, s.cfg.Seed, s.eng)
	if err != nil {
		return nil, err
	}
	return &Repair{
		Sigma:  res.Sigma,
		Ext:    res.State,
		FDCost: res.Cost,
		Data:   data,
		Tau:    tau,
		DeltaP: res.DeltaP,
		Stats:  res.Stats,
	}, nil
}

// RunSampling is the Sampling-Repair baseline of Section 8.3.5: it invokes
// an independent single-τ search per requested threshold (mirroring
// repeated executions of Algorithm 1) and deduplicates identical FD
// repairs. Thresholds are processed as given.
//
// Each τ still runs its own full search — the search-effort profile
// Figure 13 measures is preserved — but the per-τ sessions draw their
// analyses from one shared engine, so iterations after the first reuse
// the warm cluster arenas instead of re-running conflict.New.
func RunSampling(ctx context.Context, in *relation.Instance, sigma fd.Set, taus []int, cfg Config) ([]*Repair, error) {
	eng, err := session.For(cfg.Engine, in)
	if err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	cfg.Engine = eng
	var out []*Repair
	seen := make(map[string]bool)
	for _, tau := range taus {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		s, err := NewSession(in, sigma, cfg)
		if err != nil {
			return nil, err
		}
		r, err := s.Run(ctx, tau)
		s.Close()
		if err != nil {
			return nil, err
		}
		if r == nil {
			continue
		}
		key := r.Ext.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, r)
	}
	return out, nil
}
