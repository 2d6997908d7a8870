package relatrust

import (
	"context"
	"fmt"
	"iter"
	"slices"

	"relatrust/internal/discovery"
	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/session"
)

// NewAttrSet builds an attribute set from positions — the form
// DiscoverOptions.Attrs takes. Schema.ParseAttrs converts names instead.
func NewAttrSet(attrs ...int) AttrSet { return relation.NewAttrSet(attrs...) }

// DiscoveredFD is one mined dependency: the FD, its g3 error fraction
// (0 for exact FDs), and the lattice level (LHS size) that produced it.
type DiscoveredFD = discovery.Found

// AttrsRangeError reports a DiscoverOptions.Attrs set referencing a
// column outside the instance schema. The server maps it to 422
// schema_mismatch.
type AttrsRangeError = discovery.AttrsRangeError

// DiscoverOptions tunes the discovery entry points.
type DiscoverOptions struct {
	// MaxLHS is the largest LHS size to explore (the paper mines FDs with
	// "fewer than 6 attributes"). Default 3.
	MaxLHS int
	// MaxError is the largest tolerated g3 error: the fraction of tuples
	// that must be ignored for X → A to hold (0 = exact FDs only).
	MaxError float64
	// MaxResults stops the run after this many FDs (0 = unlimited).
	MaxResults int
	// Attrs restricts discovery to a subset of attributes (empty = all).
	Attrs AttrSet
	// Session, when non-nil, shares state across calls over the same
	// instance: discovery runs reuse the session's partition store, so a
	// second mining pass over a warm dataset skips the partitions the
	// first one cached. Nil gives the Discoverer a private session.
	Session *Session
	// Progress, when non-nil, observes the lattice walk: it is called at
	// the start of each level with the level (LHS size) and its candidate
	// count. Callbacks run synchronously on the mining goroutine.
	Progress func(level, sets int)
}

// Discoverer is the handle over one instance for FD discovery, mirroring
// Repairer: inputs are validated once at construction, and every entry
// point — the incremental Stream, the batch Discover — runs against the
// same session engine and its shared partition store.
//
// The instance must not be mutated while the Discoverer is in use.
type Discoverer struct {
	in  *Instance
	opt DiscoverOptions
	eng *session.Engine
}

// NewDiscoverer validates the inputs and returns the handle. Errors are
// structured: ErrEmptyInstance for an instance with no tuples, an
// *AttrsRangeError for an attribute restriction outside the schema. If
// opt.Session is nil the Discoverer creates and owns a private session.
func NewDiscoverer(in *Instance, opt DiscoverOptions) (*Discoverer, error) {
	if in.N() == 0 {
		return nil, ErrEmptyInstance
	}
	if err := discovery.ValidateAttrs(opt.Attrs, in.Schema.Width()); err != nil {
		return nil, err
	}
	if opt.MaxError < 0 {
		return nil, fmt.Errorf("relatrust: negative max error %v", opt.MaxError)
	}
	var eng *session.Engine
	if opt.Session != nil {
		var err error
		if eng, err = session.For(opt.Session.eng, in); err != nil {
			return nil, err
		}
	} else {
		eng = session.New(in)
	}
	return &Discoverer{in: in, opt: opt, eng: eng}, nil
}

// Instance returns the instance the Discoverer was built over.
func (d *Discoverer) Instance() *Instance { return d.in }

// Stream mines minimal FDs level by level and yields each the moment it
// is found, in mining order: levels ascend, LHS sets ascend within a
// level, RHS attributes ascend per LHS. The stream stops when the
// consumer breaks out of the loop. On failure — including cancellation,
// reported as context.Cause(ctx) — the iterator yields one final
// (zero, err) pair. Iterating the returned sequence again re-runs the
// mining pass (warm, against the session's partition store).
func (d *Discoverer) Stream(ctx context.Context) iter.Seq2[DiscoveredFD, error] {
	return func(yield func(DiscoveredFD, error) bool) {
		count := 0
		err := discovery.Stream(ctx, d.in, d.streamOptions(), func(f discovery.Found) error {
			count++
			if !yield(f, nil) {
				return errStopFrontier
			}
			if d.opt.MaxResults > 0 && count >= d.opt.MaxResults {
				return errStopFrontier
			}
			return nil
		})
		if err != nil && err != errStopFrontier {
			yield(DiscoveredFD{}, err)
		}
	}
}

// Discover collects Stream and returns every discovered FD, sorted
// deterministically (fd.Compare: by RHS, then LHS size, then LHS). With
// MaxResults set, the first MaxResults dependencies in mining order are
// returned, sorted — the same early-return contract as the CLI.
func (d *Discoverer) Discover(ctx context.Context) ([]DiscoveredFD, error) {
	var out []DiscoveredFD
	for f, err := range d.Stream(ctx) {
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	slices.SortFunc(out, func(a, b DiscoveredFD) int { return fd.Compare(a.FD, b.FD) })
	return out, nil
}

// Sigma collects the FDs of a Discover result into an FDSet, the form the
// repair entry points take — the bridge of the discover-then-repair flow.
func Sigma(found []DiscoveredFD) FDSet {
	out := make(FDSet, len(found))
	for i, f := range found {
		out[i] = f.FD
	}
	return out
}

func (d *Discoverer) streamOptions() discovery.StreamOptions {
	return discovery.StreamOptions{
		MaxLHS:   d.opt.MaxLHS,
		MaxError: d.opt.MaxError,
		Attrs:    d.opt.Attrs,
		Store:    d.eng.Partitions(),
		Progress: d.opt.Progress,
	}
}
