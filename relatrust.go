// Package relatrust repairs inconsistent data together with inaccurate
// functional dependencies (FDs), implementing Beskales, Ilyas, Golab and
// Galiullin, "On the Relative Trust between Inconsistent Data and
// Inaccurate Constraints" (ICDE 2013).
//
// Given an instance I and an FD set Σ that I violates, the central
// question is whether the data or the constraints are wrong. The package
// exposes the paper's answer: a relative-trust parameter τ caps how many
// cells a repair may change; for each τ the system finds the FD relaxation
// Σ′ (LHS extensions only) closest to Σ such that I can be made to satisfy
// Σ′ within the budget, then materializes a near-minimal data repair
// I′ ⊨ Σ′. Sweeping τ from 0 (trust the data, fix the FDs) to δP(Σ, I)
// (trust the FDs, fix the data) enumerates a Pareto frontier of suggested
// repairs.
//
// # Quick start
//
// A Repairer is the handle over one (instance, Σ) pair: it validates the
// inputs once, owns the warm analysis state, and streams the Pareto
// frontier as each trust level finishes:
//
//	inst, _ := relatrust.ReadCSVFile("people.csv")
//	sigma, _ := relatrust.ParseFDs(inst.Schema, "Surname,GivenName->Income")
//	rp, err := relatrust.NewRepairer(inst, sigma, relatrust.Options{})
//	if err != nil { ... }
//	for r, err := range rp.Frontier(ctx) {
//	    if err != nil { ... }
//	    fmt.Println(r)
//	}
//
// Every Repairer method takes a context.Context: cancelling it aborts the
// FD-modification search promptly and returns context.Cause(ctx).
// Failures are structured — errors.Is recognizes ErrEmptyFDSet,
// ErrSchemaMismatch, ErrMaxVisited (a *MaxVisitedError carrying the
// search effort), and ErrNoRepairInBudget. Long sweeps are observable
// through Options.Progress.
//
// The heavy lifting lives in the internal packages (relation, fd, conflict,
// search, repair, …); this package is the stable entry point.
package relatrust

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/repair"
	"relatrust/internal/search"
	"relatrust/internal/session"
	"relatrust/internal/weights"
)

// Re-exported core types. The aliases keep the public API to one import
// while the implementation stays modular.
type (
	// Schema is an ordered list of named attributes.
	Schema = relation.Schema
	// Instance is a set of tuples over a schema; repaired instances are
	// V-instances whose cells may hold variables ("any fresh value").
	Instance = relation.Instance
	// Tuple is one row.
	Tuple = relation.Tuple
	// Value is one cell: a constant or a variable.
	Value = relation.Value
	// AttrSet is a set of attribute positions.
	AttrSet = relation.AttrSet
	// CellRef names one cell of an instance.
	CellRef = relation.CellRef
	// FD is a functional dependency X → A.
	FD = fd.FD
	// FDSet is an ordered FD list Σ.
	FDSet = fd.Set
	// Repair is one suggested (Σ′, I′) pair with its bookkeeping.
	Repair = repair.Repair
	// DataRepair is a data-only repair: its changed cells for a fixed FD
	// set, their new values (Value), and the V-instance (Instance, built
	// on first call). The V-instance shares its unrewritten rows with the
	// repaired input and is read-only; a later Repairer may take it as
	// input.
	DataRepair = repair.DataRepair
	// SearchStats reports the effort of the FD-modification search.
	SearchStats = search.Stats
	// WeightFunc prices appended LHS attributes.
	WeightFunc = weights.Func
	// ProgressEvent is one observation of a running frontier sweep,
	// delivered to Options.Progress.
	ProgressEvent = repair.ProgressEvent
	// ProgressKind names the sweep milestones a ProgressEvent reports.
	ProgressKind = repair.ProgressKind
	// MaxVisitedError is the typed form of ErrMaxVisited; errors.As
	// recovers the SearchStats at the abort.
	MaxVisitedError = search.MaxVisitedError
	// SchemaMismatchError is the typed form of ErrSchemaMismatch, naming
	// the offending FD.
	SchemaMismatchError = repair.SchemaMismatchError
	// BudgetError is the typed form of ErrNoRepairInBudget, carrying τ.
	BudgetError = repair.BudgetError
	// PanicError is the typed form of ErrPanic: a panic recovered inside
	// the parallel sweep machinery, carrying the panic value and stack.
	PanicError = search.PanicError
)

// Progress milestones (see ProgressEvent).
const (
	ProgressSweepStarted  = repair.ProgressSweepStarted
	ProgressTauFinished   = repair.ProgressTauFinished
	ProgressTauStarted    = repair.ProgressTauStarted
	ProgressSweepFinished = repair.ProgressSweepFinished
)

// Structured failure modes of the repair entry points, matched with
// errors.Is. The returned errors may be typed wrappers carrying detail
// (MaxVisitedError, SchemaMismatchError, BudgetError). Cancellation is
// reported as the cancelled context's cause — errors.Is(err,
// context.Canceled) for a plain cancel.
var (
	// ErrEmptyFDSet: the FD set Σ has no dependencies to repair against.
	ErrEmptyFDSet = repair.ErrEmptyFDSet
	// ErrEmptyInstance: the instance has no tuples.
	ErrEmptyInstance = repair.ErrEmptyInstance
	// ErrSchemaMismatch: an FD references attributes outside the
	// instance's schema.
	ErrSchemaMismatch = repair.ErrSchemaMismatch
	// ErrNoRepairInBudget: no FD relaxation fits the requested τ — the
	// paper's (φ, φ) answer, reported by Repairer.RepairWithBudget.
	ErrNoRepairInBudget = repair.ErrNoRepairInBudget
	// ErrMaxVisited: the FD-modification search hit Options.MaxVisited.
	ErrMaxVisited = search.ErrMaxVisited
	// ErrPanic: a panic was recovered during a sweep; the sweep failed
	// but the session and process stay usable.
	ErrPanic = search.ErrPanic
)

// NewSchema builds a schema from attribute names.
func NewSchema(names ...string) (*Schema, error) { return relation.NewSchema(names...) }

// NewInstance returns an empty instance of the schema.
func NewInstance(s *Schema) *Instance { return relation.NewInstance(s) }

// Const returns a constant cell value — the building block of RowOp
// tuples submitted to a LiveDataset.
func Const(s string) Value { return relation.Const(s) }

// ReadCSV parses a header-first CSV stream into an instance.
func ReadCSV(r io.Reader) (*Instance, error) { return relation.ReadCSV(r) }

// ReadCSVFile parses a header-first CSV file into an instance.
func ReadCSVFile(path string) (*Instance, error) { return relation.ReadCSVFile(path) }

// WriteCSV writes the instance with a header row.
func WriteCSV(w io.Writer, in *Instance) error { return relation.WriteCSV(w, in) }

// ParseFD reads one FD in "A,B->C" form against a schema.
func ParseFD(s *Schema, spec string) (FD, error) { return fd.Parse(s, spec) }

// ParseFDs reads a semicolon- or newline-separated FD list; "A->B,C"
// expands to one FD per RHS attribute.
func ParseFDs(s *Schema, specs string) (FDSet, error) { return fd.ParseSet(s, specs) }

// Session shares one repair-session engine — the conflict-analysis
// cluster arenas, dictionary-code columns, pooled scratch and weight memo
// of one instance — across facade calls. Create one per instance and pass
// it via Options.Session when issuing several repair calls over the same
// data (a budget sweep, MaxBudget followed by Frontier, repeated
// sampling): every call after the first forks the warm analysis and
// reads the warm weights instead of re-scanning the instance. The instance must not be mutated while the
// session is in use. Sessions are safe for concurrent use.
//
// A Repairer owns a Session implicitly; explicit Sessions remain useful to
// share state across several Repairers over the same instance.
type Session struct {
	eng *session.Engine
}

// NewSession returns a session over the instance.
func NewSession(in *Instance) *Session {
	return &Session{eng: session.New(in)}
}

// SessionStats reports a session engine's effort: analyses handed out and
// from-scratch cluster builds. Acquires−Builds is the number of
// constructions the warm session avoided — serving layers surface it to
// show a hot dataset paying for analysis once.
type SessionStats = session.Stats

// Stats returns a snapshot of the session's engine counters. It is safe to
// call concurrently with repair calls using the session.
func (s *Session) Stats() SessionStats { return s.eng.Stats() }

// Weights resolves a weighting by name: attr-count (also "count" or ""),
// distinct-count (also "distinct"), entropy, or mdl. The instance-backed
// ones are views over the session's one weight source and share its memo.
func (s *Session) Weights(name string) (WeightFunc, error) {
	return weights.ByName(name, s.eng.Weights())
}

// Options tunes the repair entry points.
type Options struct {
	// Weights prices LHS extensions. Nil selects distinct-count — the
	// paper's experimental choice — over the session's weight source, so
	// every call on one session shares its memo (see Session.Weights).
	Weights WeightFunc
	// BestFirst disables the A* heuristic (mainly for comparison runs).
	BestFirst bool
	// Seed drives the randomized data-repair order; fixed seeds give
	// reproducible repairs.
	Seed int64
	// MaxVisited aborts runaway searches (0 = a large default). The abort
	// is reported as ErrMaxVisited.
	MaxVisited int
	// Workers sets the parallelism of the FD-modification search: successor
	// evaluation, goal tests, and open-list re-estimation run on this many
	// goroutines. 0 selects GOMAXPROCS; 1 evaluates inline on the calling
	// goroutine. Results are identical for every setting.
	Workers int
	// Session, when non-nil, shares analysis state across calls over the
	// same instance (see NewSession). Nil gives every call a private
	// engine (every Repairer, a private session).
	Session *Session
	// Progress, when non-nil, observes frontier sweeps: τ levels starting
	// and finishing, states visited, and the conflict decomposition.
	// Callbacks run synchronously on the sweeping goroutine and must be
	// fast; they must not call back into the Repairer.
	Progress func(ProgressEvent)
}

// config maps the options onto a repair configuration (o.Session is set).
func (o Options) config() repair.Config {
	w := o.Weights
	if w == nil {
		w = o.Session.eng.Weights().DistinctCount()
	}
	return repair.Config{
		Weights: w,
		Search: search.Options{
			BestFirst:  o.BestFirst,
			MaxVisited: o.MaxVisited,
			Workers:    o.Workers,
		},
		Seed:     o.Seed,
		Engine:   o.Session.eng,
		Progress: o.Progress,
	}
}

// AttrCountWeights prices an extension by its number of attributes.
func AttrCountWeights() WeightFunc { return weights.AttrCount{} }

// DistinctCountWeights prices an extension by the number of distinct
// values it takes in the instance (informative attributes cost more).
func DistinctCountWeights(in *Instance) WeightFunc { return weights.NewDistinctCount(in) }

// EntropyWeights prices an extension by the entropy of its projection.
func EntropyWeights(in *Instance) WeightFunc { return weights.NewEntropy(in) }

// Repairer is the handle over one (instance, Σ) pair: inputs are validated
// once at construction, and every repair entry point — the streaming
// Frontier, single-budget repairs, data-only repairs, sampling — runs
// against the same warm session engine, so repeated calls fork cached
// analysis state instead of re-scanning the instance.
//
// The instance must not be mutated while the Repairer is in use. A
// Repairer is safe for concurrent use: each method call acquires private
// scratch from the shared engine.
type Repairer struct {
	in    *Instance
	sigma FDSet
	opt   Options
}

// NewRepairer validates the pair and returns the handle. Errors are
// structured: ErrEmptyFDSet, ErrEmptyInstance, or a *SchemaMismatchError
// (errors.Is(err, ErrSchemaMismatch)). If opt.Session is nil the Repairer
// creates and owns a private session over the instance.
func NewRepairer(in *Instance, sigma FDSet, opt Options) (*Repairer, error) {
	if err := repair.Validate(in, sigma); err != nil {
		return nil, err
	}
	if opt.Session == nil {
		opt.Session = NewSession(in)
	}
	return &Repairer{in: in, sigma: sigma, opt: opt}, nil
}

// Instance returns the instance the Repairer was built over.
func (r *Repairer) Instance() *Instance { return r.in }

// Sigma returns the FD set the Repairer was built over.
func (r *Repairer) Sigma() FDSet { return r.sigma }

// errStopFrontier signals that the consumer of a Frontier stream broke out
// of the range loop; it never escapes the iterator.
var errStopFrontier = errors.New("relatrust: frontier consumer stopped")

// Frontier implements the paper's Algorithm 6 across the entire
// relative-trust spectrum as a stream: it yields one repair per distinct
// trust level, ordered from "trust the FDs" (data-only repair, unchanged
// Σ) to "trust the data" (FD-only repair, unchanged I), each Pareto point
// delivered the moment its trust level is finalized. Each point's Stats
// snapshot the search effort up to that point; the last point carries the
// whole sweep's.
//
// The sweep stops when the consumer breaks out of the loop. On failure —
// including cancellation, reported as context.Cause(ctx) — the iterator
// yields one final (nil, err) pair. Iterating the returned sequence again
// re-runs the sweep.
func (r *Repairer) Frontier(ctx context.Context) iter.Seq2[*Repair, error] {
	return r.frontier(ctx, 0, -1)
}

// FrontierRange restricts Frontier to τ ∈ [tauLow, tauHigh].
//
// Because each yielded point is final the moment it is yielded (no
// later goal can supersede it), FrontierRange is also the resume
// primitive: after consuming a frontier's points up to some repair r,
// FrontierRange(ctx, tauLow, r.DeltaP-1) yields exactly the remaining
// points of that frontier, in order. The durable job tier
// (internal/jobs) depends on this contract to make a crash-resumed
// sweep's stream byte-identical to an uninterrupted one; a last point
// with DeltaP-1 below tauLow means the frontier was already complete.
func (r *Repairer) FrontierRange(ctx context.Context, tauLow, tauHigh int) iter.Seq2[*Repair, error] {
	return r.frontier(ctx, tauLow, tauHigh)
}

// frontier is the shared iterator; tauHigh < 0 means δP(Σ, I).
func (r *Repairer) frontier(ctx context.Context, tauLow, tauHigh int) iter.Seq2[*Repair, error] {
	return func(yield func(*Repair, error) bool) {
		s, err := repair.NewSession(r.in, r.sigma, r.opt.config())
		if err != nil {
			yield(nil, err)
			return
		}
		defer s.Close()
		high := tauHigh
		if high < 0 {
			high = s.DeltaPOriginal()
		}
		err = s.StreamRange(ctx, tauLow, high, func(rep *Repair) error {
			if !yield(rep, nil) {
				return errStopFrontier
			}
			return nil
		})
		if err != nil && !errors.Is(err, errStopFrontier) {
			yield(nil, err)
		}
	}
}

// RepairWithBudget implements the paper's Algorithm 1 for one trust level:
// it returns the repair (Σ′, I′) whose FD set is closest to sigma among
// all relaxations reachable with at most tau cell changes. When no
// relaxation fits the budget it returns a *BudgetError matching
// ErrNoRepairInBudget. I′ satisfies Σ′ and differs from the input in at
// most tau cells.
func (r *Repairer) RepairWithBudget(ctx context.Context, tau int) (*Repair, error) {
	if tau < 0 {
		return nil, fmt.Errorf("relatrust: negative cell-change budget %d", tau)
	}
	s, err := repair.NewSession(r.in, r.sigma, r.opt.config())
	if err != nil {
		return nil, err
	}
	defer s.Close()
	rep, err := s.Run(ctx, tau)
	if err != nil {
		return nil, err
	}
	if rep == nil {
		return nil, &repair.BudgetError{Tau: tau}
	}
	return rep, nil
}

// MaxBudget returns δP(Σ, I): the cell-change budget beyond which the data
// can always be repaired without touching Σ. It is the natural upper end
// of the τ range and the denominator of relative trust τr = τ/δP.
func (r *Repairer) MaxBudget(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, context.Cause(ctx)
	}
	s, err := repair.NewSession(r.in, r.sigma, r.opt.config())
	if err != nil {
		return 0, err
	}
	defer s.Close()
	return s.DeltaPOriginal(), nil
}

// Sample draws up to k distinct data repairs for the fixed FD set (no FD
// modification), exposing the different minimal ways the violations can be
// resolved; see the paper's reference [3]. Cancelling ctx aborts between
// draws with context.Cause(ctx).
func (r *Repairer) Sample(ctx context.Context, k int) ([]*DataRepair, error) {
	return repair.SampleDataRepairs(ctx, r.in, r.sigma, k, r.opt.Seed, r.opt.Session.eng)
}

// RepairDataOnly materializes a data repair for the fixed FD set without
// touching the FDs (the τ = δP end of the spectrum, as classic cleaning
// systems do). Cells in pinned are hard constraints that must not change;
// pass nil to allow any cell.
func (r *Repairer) RepairDataOnly(ctx context.Context, pinned map[CellRef]bool) (*DataRepair, error) {
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	return repair.RepairDataPinned(r.in, r.sigma, pinned, r.opt.Seed, r.opt.Session.eng)
}

// Violations reports up to max violating tuple pairs (0 = all; beware of
// quadratic blowup on badly violated instances).
func Violations(in *Instance, sigma FDSet, max int) []fd.Violation {
	return sigma.Violations(in, max)
}

// Satisfies reports whether the instance satisfies every FD of sigma.
func Satisfies(in *Instance, sigma FDSet) bool { return sigma.SatisfiedBy(in) }
