package discovery

import (
	"context"
	"slices"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
)

// ApproxOptions bounds the approximate-FD discovery search.
type ApproxOptions struct {
	// MaxError is the largest tolerated g3-style error: the fraction of
	// tuples that must be ignored for X → A to hold (0 = exact FDs).
	MaxError float64
	// MaxLHS is the largest LHS size to explore. Default 3.
	MaxLHS int
	// MaxResults stops early after this many FDs (0 = unlimited), same
	// early-return-sorted contract as Discover: the first MaxResults
	// dependencies in mining order, sorted.
	MaxResults int
	// Attrs restricts discovery to a subset of attributes (empty = all).
	Attrs relation.AttrSet
}

func (o ApproxOptions) withDefaults(width int) (ApproxOptions, error) {
	if err := ValidateAttrs(o.Attrs, width); err != nil {
		return o, err
	}
	if o.MaxLHS <= 0 {
		o.MaxLHS = 3
	}
	if o.Attrs.IsEmpty() {
		o.Attrs = relation.FullSet(width)
	}
	return o, nil
}

// ApproxFD is a discovered approximate dependency with its error.
type ApproxFD struct {
	FD    fd.FD
	Error float64 // fraction of tuples violating the plurality assignment
}

// DiscoverApprox returns every minimal approximate FD X → A with
// |X| ≤ MaxLHS whose g3 error is at most MaxError, in the sense of the
// approximate-dependency work the paper cites ([9] TANE, [11], [14]):
// the minimum fraction of tuples to remove so the FD holds exactly.
// Minimality is with respect to the error threshold: no proper LHS subset
// already satisfies it. This substrate supports workflows that start from
// almost-holding FDs rather than exact ones — exactly the "FDs that were
// automatically discovered from legacy data" scenario of Section 1.
//
// The g3 error of each candidate is computed by splitting the cached
// stripped π(X) classes, not by repartitioning the instance per candidate;
// an oracle test pins the results byte-equal to the Error() reference.
// An empty instance returns nil. An Attrs set referencing a column
// outside the schema returns an *AttrsRangeError.
func DiscoverApprox(in *relation.Instance, opt ApproxOptions) ([]ApproxFD, error) {
	opt, err := opt.withDefaults(in.Schema.Width())
	if err != nil {
		return nil, err
	}
	if in.N() == 0 {
		return nil, nil
	}
	var out []ApproxFD
	serr := Stream(context.Background(), in, StreamOptions{
		MaxLHS:   opt.MaxLHS,
		MaxError: opt.MaxError,
		Attrs:    opt.Attrs,
	}, func(f Found) error {
		out = append(out, ApproxFD{FD: f.FD, Error: f.Error})
		if opt.MaxResults > 0 && len(out) >= opt.MaxResults {
			return errStopDiscover
		}
		return nil
	})
	if serr != nil && serr != errStopDiscover {
		return nil, serr
	}
	slices.SortFunc(out, func(a, b ApproxFD) int { return fd.Compare(a.FD, b.FD) })
	return out, nil
}
