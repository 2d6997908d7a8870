package discovery

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"relatrust/internal/fd"
	"relatrust/internal/relation"
)

// AttrsRangeError reports a StreamOptions.Attrs bit that falls outside the
// instance schema — the served-input hazard that used to panic inside
// Partitioner.col. The server maps it to 422 schema_mismatch.
type AttrsRangeError struct {
	Attr  int // the offending attribute index (the set's highest bit)
	Width int // the schema width it exceeds
}

func (e *AttrsRangeError) Error() string {
	return fmt.Sprintf("discovery: attrs references column %d but the schema has %d columns", e.Attr, e.Width)
}

// ValidateAttrs checks an Attrs restriction against a schema width,
// returning an *AttrsRangeError when the set references a column the
// schema does not have. Stream applies it; callers that need to reject
// bad input before starting a run (the facade, the server) can call it
// directly.
func ValidateAttrs(attrs relation.AttrSet, width int) error {
	if !attrs.IsEmpty() && attrs.Max() >= width {
		return &AttrsRangeError{Attr: attrs.Max(), Width: width}
	}
	return nil
}

// Found is one discovered dependency, reported in mining order.
type Found struct {
	FD    fd.FD
	Error float64 // g3 fraction (0 for exact FDs)
	Level int     // LHS size, the lattice level that produced it
}

// DefaultMaxLHS is the largest LHS size Stream explores when
// StreamOptions.MaxLHS is 0.
const DefaultMaxLHS = 3

// StreamOptions bounds a Stream run. The zero value mines exact FDs over
// all attributes up to the default MaxLHS with a private partition store.
type StreamOptions struct {
	// MaxLHS is the largest LHS size to explore (0 = DefaultMaxLHS).
	MaxLHS int
	// MaxError is the largest tolerated g3 error fraction (0 = exact FDs).
	MaxError float64
	// Attrs restricts discovery to a subset of attributes (empty = all).
	Attrs relation.AttrSet
	// Store supplies stripped partitions and caches the ones this run
	// computes; nil uses a run-private store. A session-shared store lets
	// repeated mining passes over a warm dataset skip the level-1 and
	// top-level partitions, which Stream never evicts.
	Store *relation.PartitionStore
	// Progress, if set, is called at the start of each lattice level with
	// the level (LHS size) and the number of candidate LHS sets in it.
	Progress func(level, sets int)
}

// Stream mines minimal FDs level by level and hands each to emit as it is
// found: every X → A with |X| ≤ MaxLHS whose g3 error fraction is at most
// MaxError, minimal in that no proper subset of X already qualifies. It
// is the one miner behind the relatrust.Discoverer facade, the discover
// CLI and POST /v1/discover. A non-nil error from emit aborts the run and
// is returned verbatim; ctx cancellation is checked once per candidate
// LHS and returns context.Cause(ctx). An Attrs set referencing a column
// outside the schema returns an *AttrsRangeError.
//
// Mining order is deterministic: levels ascend, LHS sets ascend within a
// level, RHS attributes ascend per LHS. Each level's candidates are
// evaluated on GOMAXPROCS workers, but their FDs are emitted in that
// order, so the sequence is the same for every GOMAXPROCS. A level-k
// partition π(X) is built by refining its cached level-(k−1) parent
// π(X − max X) by max X; g3 is computed by counting pluralities within
// the cached stripped π(X) classes, never by repartitioning the instance.
// Once level k is scanned, level k−1 partitions are evicted from the
// store, bounding the working set to two lattice levels plus the
// single-attribute row. Two levels are never evicted and stay in the
// store for reuse across runs: level 1 and the top level (|X| = MaxLHS),
// so a warm run reads the top level instead of rebuilding it.
func Stream(ctx context.Context, in *relation.Instance, opt StreamOptions, emit func(Found) error) error {
	width := in.Schema.Width()
	if err := ValidateAttrs(opt.Attrs, width); err != nil {
		return err
	}
	if opt.MaxLHS <= 0 {
		opt.MaxLHS = DefaultMaxLHS
	}
	if opt.Attrs.IsEmpty() {
		opt.Attrs = relation.FullSet(width)
	}
	store := opt.Store
	if store == nil {
		store = relation.NewPartitionStore()
	}
	attrs := opt.Attrs.Attrs()
	n := float64(in.N())
	// budget is the largest integer g3 count that still passes the
	// float-fraction test below, so g3Split can stop counting the moment a
	// candidate is unsalvageable (immediately, in exact mode) without
	// changing a single accept/reject decision or reported fraction.
	budget := 0
	if in.N() > 0 {
		budget = int(opt.MaxError * n)
		for float64(budget+1)/n <= opt.MaxError {
			budget++
		}
		for budget > 0 && float64(budget)/n > opt.MaxError {
			budget--
		}
	}

	// found[A] lists the minimal LHS sets discovered so far per RHS, used
	// to skip supersets (minimality pruning).
	found := make(map[int][]relation.AttrSet)
	// evaluate returns the FDs with LHS x in ascending RHS order. Level
	// workers call it concurrently, so found must not change while they
	// run.
	evaluate := func(p *relation.Partitioner, x relation.AttrSet) []Found {
		px := partitionFor(p, store, x)
		var out []Found
		for _, a := range attrs {
			if x.Contains(a) || hasSubsetLHS(found[a], x) {
				continue // a smaller LHS already determines a
			}
			if g3, ok := g3Split(p, px, a, budget); ok {
				frac := 0.0
				if n > 0 {
					frac = float64(g3) / n
				}
				out = append(out, Found{FD: fd.MustNew(x, a), Error: frac, Level: x.Len()})
			}
		}
		return out
	}
	ps := make([]*relation.Partitioner, runtime.GOMAXPROCS(0))
	for w := range ps {
		ps[w] = relation.NewPartitioner(in)
	}

	level := make([]relation.AttrSet, 0, len(attrs))
	for _, a := range attrs {
		level = append(level, relation.NewAttrSet(a))
	}

	for size := 1; size <= opt.MaxLHS && len(level) > 0; size++ {
		sort.Slice(level, func(i, j int) bool { return level[i] < level[j] })
		if opt.Progress != nil {
			opt.Progress(size, len(level))
		}
		fds, err := scanLevel(ctx, level, ps, evaluate, emit)
		if err != nil {
			return err
		}
		// The level's FDs join found only now that its workers have
		// exited, so every worker saw found as it stood when the level
		// began. That prunes exactly what a serial scan would: hasSubsetLHS
		// tests ⊆, and two distinct sets of the same size are never subsets
		// of each other, so no FD of a level can prune a candidate of it.
		for _, fs := range fds {
			for _, f := range fs {
				found[f.FD.RHS] = append(found[f.FD.RHS], f.FD.LHS)
			}
		}
		if size < opt.MaxLHS {
			level = prefixJoin(level)
		} else {
			level = nil
		}
		// Level size−1 partitions were only needed as the parents of level
		// size; drop them. The single-attribute row stays cached, and
		// the top level is never a parent, so both remain for the next run
		// over the same store.
		if size-1 >= 2 {
			store.EvictLevel(size - 1)
		}
	}
	return nil
}

// scanLevel runs evaluate over level on up to len(ps) workers, which
// claim candidates in mining order, and emits each candidate's FDs in
// that order from the calling goroutine. It returns every candidate's
// FDs, or the first emit error or context.Cause(ctx) — in every case
// only after all its workers have exited.
func scanLevel(ctx context.Context, level []relation.AttrSet, ps []*relation.Partitioner,
	evaluate func(*relation.Partitioner, relation.AttrSet) []Found, emit func(Found) error) ([][]Found, error) {
	fds := make([][]Found, len(level))
	done := make([]chan struct{}, len(level))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	for w := 0; w < min(len(ps), len(level)); w++ {
		wg.Add(1)
		go func(p *relation.Partitioner) {
			defer wg.Done()
			for !stop.Load() && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(level) {
					return
				}
				fds[i] = evaluate(p, level[i])
				close(done[i])
			}
		}(ps[w])
	}
	defer wg.Wait()
	defer stop.Store(true)

	for i := range level {
		select {
		case <-done[i]:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		for _, f := range fds[i] {
			if err := emit(f); err != nil {
				return nil, err
			}
		}
	}
	return fds, nil
}

// partitionFor returns the stripped partition of x from the store or, on
// a miss, refines the partition of x − max x by max x and caches the
// result. The parent comes from partitionFor in turn, down to π(∅), every
// tuple in one class, so a parent that a concurrent run sharing the store
// has evicted is rebuilt. The classes do not depend on which partitions
// the store holds.
func partitionFor(p *relation.Partitioner, store *relation.PartitionStore, x relation.AttrSet) relation.Partition {
	if pt, ok := store.Get(x); ok {
		return pt
	}
	a := x.Max()
	var parent relation.Partition
	if rest := x.Remove(a); rest.IsEmpty() {
		p.BeginAll()
		parent = p.Partition()
	} else {
		parent = partitionFor(p, store, rest)
	}
	pt := p.RefineStripped(parent, a)
	store.Put(x, pt)
	return pt
}

// g3Split computes the g3 error of X → a from the cached stripped π(X):
// for each X-class, the tuples outside the class's plurality a-value.
// Plurality reads the column codes directly and never disturbs the
// partition, so no repartitioning of the instance happens per candidate.
// Counting stops as soon as the error exceeds budget (false, count
// invalid) — in exact mining that means bailing at the first class that
// splits at all.
func g3Split(p *relation.Partitioner, px relation.Partition, a, budget int) (int, bool) {
	errs := 0
	for gi := 0; gi < px.NumGroups(); gi++ {
		g := px.Group(gi)
		errs += len(g) - p.Plurality(g, a)
		if errs > budget {
			return errs, false
		}
	}
	return errs, true
}

// prefixJoin generates level k+1 from the complete level k: two k-sets
// sharing all attributes but their largest join into their union, and
// every (k+1)-set is produced by exactly one such pair. The member of the
// pair that lacks the union's largest attribute is the union's
// partitionFor parent. The scan sorts a copy by (prefix, max) so prefix
// blocks are contiguous; the caller's level slice keeps its mining order.
func prefixJoin(level []relation.AttrSet) []relation.AttrSet {
	byPrefix := append([]relation.AttrSet(nil), level...)
	sort.Slice(byPrefix, func(i, j int) bool {
		pi := byPrefix[i].Remove(byPrefix[i].Max())
		pj := byPrefix[j].Remove(byPrefix[j].Max())
		if pi != pj {
			return pi < pj
		}
		return byPrefix[i] < byPrefix[j]
	})
	var next []relation.AttrSet
	for i := 0; i < len(byPrefix); i++ {
		pi := byPrefix[i].Remove(byPrefix[i].Max())
		for j := i + 1; j < len(byPrefix); j++ {
			if byPrefix[j].Remove(byPrefix[j].Max()) != pi {
				break
			}
			next = append(next, byPrefix[i].Union(byPrefix[j]))
		}
	}
	return next
}
