package search

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"relatrust/internal/components"
	"relatrust/internal/conflict"
	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/weights"
)

const (
	// comboCap bounds the resolution cross-product enumerated per
	// difference set before the heuristic falls back to an aggregate
	// lower bound.
	comboCap = 16
	// matchSampleCap bounds the vertex-disjoint matching sample behind the
	// knapsack half of the heuristic.
	matchSampleCap = 2000
	// maxDiffSets caps |Ds|, the difference sets the heuristic reasons
	// about per state. Larger is tighter but more expensive.
	maxDiffSets = 3
	// capPerCluster bounds conflict-graph edges sampled per violation
	// cluster when collecting difference sets.
	capPerCluster = 50
)

// Options tunes the FD-modification search. The zero value selects the
// paper's A*-Repair with default knobs.
type Options struct {
	// BestFirst disables the gc(S) lower bound and explores in plain
	// state-cost order (the Best-First-Repair baseline). The zero value is
	// the paper's A*-Repair — deliberately, so an unset Options can never
	// silently select the baseline algorithm.
	BestFirst bool
	// MaxVisited aborts the search after this many states have been
	// popped, as a runaway guard. Default 2,000,000.
	MaxVisited int
	// Workers sets the number of evaluation workers: successor scoring,
	// the goal-test cover query, and open-list re-estimation fan out across
	// this many goroutines, each owning a forked conflict.Analysis and a
	// private cost cache. 1 evaluates inline on the calling goroutine;
	// <= 0 selects GOMAXPROCS. Results are bit-identical for every worker
	// count.
	Workers int
	// Decomp supplies a pre-built component evaluator sharing this
	// searcher's analysis root (the session engine caches one per root, so
	// repeated sweeps skip the component build). Nil means the searcher
	// builds its own.
	Decomp *components.Evaluator
}

func (o Options) withDefaults() Options {
	if o.MaxVisited <= 0 {
		o.MaxVisited = 2_000_000
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Stats reports search effort.
type Stats struct {
	Visited   int           // states popped from the open list
	Generated int           // child states created
	GCCalls   int           // heuristic evaluations
	Duration  time.Duration // wall-clock time of the search call
}

// Result is one FD repair: the extension vector, the corresponding FD set,
// its cost dist_c(Σ, Σ′), and the cover statistics that determine how many
// cell changes the data-repair phase needs.
type Result struct {
	State     State
	Sigma     fd.Set  // base set with extensions applied
	Cost      float64 // dist_c(Σ, Σ′) under the searcher's weighting
	CoverSize int     // |C2opt(Σ′, I)|
	DeltaP    int     // δP(Σ′, I) = α·CoverSize: upper bound on cell changes
	Stats     Stats
}

// Searcher runs FD-modification searches over one analyzed instance. The
// Searcher itself is not safe for concurrent use (it shares the analysis'
// and the heuristic's scratch space); with Options.Workers > 1 each search
// call internally fans evaluations out over forked analyses while keeping
// results bit-identical to Workers: 1.
type Searcher struct {
	An    *conflict.Analysis
	W     weights.Func
	Opt   Options
	alpha int
	floor int // α·(permanent matching): hard lower bound on δP of every Σ′
	ds    []conflict.DiffSet
	h     *heuristic
	costs *costCache

	// decomp answers every goal-test cover query component-wise.
	decomp *components.Evaluator

	// coverStats accumulates the workers' cover-query refinement counters
	// across the runs of this searcher (see CoverCacheStats).
	coverStats conflict.CoverStats

	// lastStats is the final effort of the most recent run (see LastStats).
	lastStats Stats
}

// NewSearcher prepares a searcher: wires the heuristic over the root's
// difference sets, which are collected once per component evaluator. The
// weighting w prices LHS extensions.
func NewSearcher(an *conflict.Analysis, w weights.Func, opt Options) *Searcher {
	opt = opt.withDefaults()
	width := an.In.Schema.Width()
	alpha := an.Sigma.Alpha(width)
	decomp := opt.Decomp
	if decomp == nil {
		decomp = components.NewEvaluator(an)
	}
	root := decomp.RootData(func() any { return newRootData(an) }).(*rootData)
	s := &Searcher{
		An:     an,
		W:      w,
		Opt:    opt,
		alpha:  alpha,
		floor:  alpha * root.permanent,
		ds:     root.ds,
		costs:  &costCache{w: w},
		decomp: decomp,
	}
	s.h = &heuristic{
		sigma:      an.Sigma,
		w:          s.costs,
		alpha:      alpha,
		maxDs:      maxDiffSets,
		width:      width,
		tuples:     an.In.N(),
		matchDiffs: root.matchDiffs,
	}
	return s
}

// rootData is what a searcher derives from (instance, Σ) alone. It is
// kept on the component evaluator (Evaluator.RootData), which the session
// engine caches per root, so every session over a root shares one copy;
// searchers only read it.
type rootData struct {
	permanent  int                // maximal matching of unresolvable edges
	ds         []conflict.DiffSet // difference sets, capPerCluster edges per cluster
	matchDiffs []relation.AttrSet // difference sets of the matching sample
}

func newRootData(an *conflict.Analysis) *rootData {
	rd := &rootData{permanent: an.PermanentMatching(), ds: an.DiffSets(capPerCluster)}
	edges := an.MatchingEdgeSample(matchSampleCap)
	rd.matchDiffs = make([]relation.AttrSet, len(edges))
	for i, e := range edges {
		rd.matchDiffs[i] = an.In.Tuples[e.T1].DiffSet(an.In.Tuples[e.T2])
	}
	return rd
}

// ComponentStats reports the conflict-hypergraph decomposition driving the
// goal-test cover queries: the component count and largest component of
// the analyzed instance, and how many per-component evaluations were
// dispatched across the worker pool so far.
type ComponentStats struct {
	Components       int
	LargestComponent int
	ParallelEvals    int64
}

// ComponentStats returns the searcher's decomposition shape and the
// cumulative cross-component fan-out effort (see ComponentStats type).
func (s *Searcher) ComponentStats() ComponentStats {
	d := s.decomp.Decomposition()
	return ComponentStats{
		Components:       d.Components(),
		LargestComponent: d.LargestComponent(),
		ParallelEvals:    s.decomp.Counters().Parallel,
	}
}

// Alpha returns α = min{|R|−1, |Σ|}, the per-tuple change bound.
func (s *Searcher) Alpha() int { return s.alpha }

// DeltaPOriginal returns δP(Σ, I) for the unmodified FD set — the natural
// upper end of the τ range and the denominator of the relative threshold
// τr used throughout the experiments.
func (s *Searcher) DeltaPOriginal() int { return s.alpha * s.decomp.CoverSize(s.An, nil) }

// LastStats returns the final effort of the most recent Find or
// FindRangeStream call on this searcher, including runs that ended in an
// error or cancellation. Streaming callers use it to report whole-sweep
// effort after the last result was already delivered with a snapshot.
func (s *Searcher) LastStats() Stats { return s.lastStats }

// CoverCacheStats returns the cover-query refinement counters of the
// evaluation workers, summed over every search run on this searcher since
// construction, at every worker count.
func (s *Searcher) CoverCacheStats() conflict.CoverStats { return s.coverStats }

// node is an open-list entry.
type node struct {
	state State
	cost  float64 // g: dist_c of the state itself
	gc    float64 // estimated cost of the cheapest goal descendant (= cost for best-first)
	seq   int     // insertion order, for deterministic tie-breaking
	index int     // heap bookkeeping
}

type openList []*node

func (o openList) Len() int { return len(o) }
func (o openList) Less(i, j int) bool {
	if o[i].gc != o[j].gc {
		return o[i].gc < o[j].gc
	}
	if o[i].cost != o[j].cost {
		return o[i].cost < o[j].cost
	}
	return o[i].seq < o[j].seq
}
func (o openList) Swap(i, j int) {
	o[i], o[j] = o[j], o[i]
	o[i].index, o[j].index = i, j
}
func (o *openList) Push(x any) {
	n := x.(*node)
	n.index = len(*o)
	*o = append(*o, n)
}
func (o *openList) Pop() any {
	old := *o
	n := old[len(old)-1]
	old[len(old)-1] = nil
	*o = old[:len(old)-1]
	return n
}

// Find implements Algorithm 2 (Modify_FDs): it returns the FD repair of
// minimum dist_c whose δP is at most tau, or nil if none exists (which can
// only happen if some conflicting pair differs solely on an FD's RHS, so no
// LHS extension resolves it, and tau is too small to repair it by data
// changes). Cancelling ctx aborts the search with context.Cause(ctx).
func (s *Searcher) Find(ctx context.Context, tau int) (*Result, error) {
	var res *Result
	err := s.run(ctx, tau, tau, func(r *Result) error {
		res = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// FindRangeStream implements Algorithm 6 (Find_Repairs_FDs): it finds the
// FD repairs for every distinct relative-trust level with τ in [tauLow,
// tauHigh], reusing one open list across levels instead of re-running the
// search per τ, and hands each to emit as soon as it is proven final, in
// decreasing τ (increasing FD cost). A found goal is *held* until either a
// goal of strictly different cost arrives (Definition 4 lets a later
// equal-cost goal with smaller δP supersede the held one) or the search
// ends. Results emitted mid-search carry the effort accumulated up to
// their finalization; the final held result carries the whole run's stats
// (see LastStats). An error returned by emit aborts the search and is
// returned verbatim; cancellation returns context.Cause(ctx).
func (s *Searcher) FindRangeStream(ctx context.Context, tauLow, tauHigh int, emit func(*Result) error) error {
	if tauLow > tauHigh {
		return fmt.Errorf("search: tauLow %d exceeds tauHigh %d", tauLow, tauHigh)
	}
	return s.run(ctx, tauLow, tauHigh, emit)
}

// resultSink streams the goals of one run with a one-goal lag: the most
// recent goal stays pending because a later goal of equal cost supersedes
// it (the Definition 4 tie-break by smaller data distance). A goal of any
// other cost makes the pending one final and emits it; finish emits the
// last one once the run is over and its stats are final.
type resultSink struct {
	pending *Result
	emit    func(*Result) error
}

// add records a goal, superseding the pending one on an equal-cost tie
// (it was never emitted) and emitting it otherwise.
func (k *resultSink) add(r *Result) error {
	prev := k.pending
	k.pending = r
	if prev == nil || math.Abs(prev.Cost-r.Cost) < 1e-9 {
		return nil
	}
	return k.emit(prev)
}

// finish emits the pending goal with the whole run's stats.
func (k *resultSink) finish(stats Stats) error {
	if k.pending == nil {
		return nil
	}
	k.pending.Stats = stats
	return k.emit(k.pending)
}

// run is the A* loop of Algorithms 2 and 6: a single-τ search is a range
// search whose first goal ends it, and emit receives the finalized results
// (see FindRangeStream). The three expensive per-iteration evaluations go
// through an evalPool (see pool.go):
//
//   - the popped state's goal-test cover query, usually prefetched one
//     iteration early — while the children of the previous pop were still
//     being scored — by speculating that the current heap top wins the
//     next pop (cover queries do not depend on τ, so only a child
//     overtaking the top invalidates the prefetch);
//   - the popped state's children are batch-scored (StateCost + gc),
//     speculatively under the current τ, and re-scored in the rare case a
//     goal tightens τ underneath them;
//   - after a goal, the open-list re-estimation fans out in chunks.
//
// With Workers: 1 the pool is inline: a task runs on this goroutine only
// when its result is waited for, so the discarded speculation above never
// runs and the loop does no work beyond the plain sequential A*.
//
// Determinism: scores land in generation order regardless of worker finish
// order, children receive seq tie-breakers in generation order, the
// re-estimation compaction visits nodes in heap-array order, and every
// worker computes bit-identical floats (forked analyses share the immutable
// clusters; cost caches memoize one deterministic weights.Func). The pop
// sequence — and therefore results, goal order, and stats — is the same
// for every worker count. Stats count logical evaluations: discarded
// speculative work is not reported.
func (s *Searcher) run(ctx context.Context, tauLow, tauHigh int, emit func(*Result) error) error {
	start := time.Now()
	stats := Stats{}
	defer func() { s.lastStats = stats }()
	tau := tauHigh
	sigma := s.An.Sigma
	width := s.An.In.Schema.Width()

	// Permanent conflicts put a hard floor under δP of every relaxation:
	// below it there is no goal anywhere in the space, so don't search.
	if tau < s.floor {
		return nil
	}

	// The deferred close drains every in-flight and queued task before the
	// workers exit and their forks are released, so an early return — error,
	// cancellation, emit abort — never leaks a goroutine and never recycles
	// a fork a worker is still touching.
	pool := newEvalPool(s, s.Opt.Workers)
	defer pool.close()

	sink := resultSink{emit: emit}
	pq := &openList{}
	heap.Init(pq)
	seq := 0
	root := Root(len(sigma))
	if !s.Opt.BestFirst {
		stats.GCCalls++
	}
	rootScore := pool.startScore([]State{root}, tau, nil).wait()[0]
	heap.Push(pq, &node{state: root, cost: rootScore.cost, gc: rootScore.gc, seq: seq})

	var childBuf []State
	var scoreBuf []childScore
	var prefetch *coverTask // speculative goal test of the predicted next pop
	for pq.Len() > 0 && tau >= tauLow {
		if ctx.Err() != nil {
			prefetch.discard()
			stats.Duration = time.Since(start)
			return context.Cause(ctx)
		}
		if err := pool.err(); err != nil {
			prefetch.discard()
			stats.Duration = time.Since(start)
			return err
		}
		if stats.Visited >= s.Opt.MaxVisited {
			prefetch.discard()
			stats.Duration = time.Since(start)
			return &MaxVisitedError{Stats: stats}
		}
		n := heap.Pop(pq).(*node)
		stats.Visited++
		cover := prefetch
		prefetch = nil
		if cover != nil && cover.forNode != n {
			cover.discard() // mispredicted: a pushed child overtook the heap top
			cover = nil
		}
		if cover == nil {
			cover = pool.startCover(n.state, n)
		}
		if pq.Len() > 0 {
			prefetch = pool.startCover((*pq)[0].state, (*pq)[0])
		}
		// Score the children under the current τ while the goal test (and
		// the prefetch for the next pop) are in flight.
		childBuf = n.state.Children(width, sigma, childBuf[:0])
		batch := pool.startScore(childBuf, tau, scoreBuf)
		coverSize := cover.wait()
		// A panicked cover query completes with a poisoned size; check the
		// pool before treating it as a goal (or pushing children scored by a
		// panicked worker).
		if err := pool.err(); err != nil {
			batch.discard()
			prefetch.discard()
			stats.Duration = time.Since(start)
			return err
		}
		if coverSize*s.alpha <= tau {
			stats.Duration = time.Since(start)
			r := &Result{
				State:     n.state,
				Sigma:     n.state.Apply(sigma),
				Cost:      n.cost,
				CoverSize: coverSize,
				DeltaP:    coverSize * s.alpha,
				Stats:     stats,
			}
			// Definition 4 breaks dist_c ties by the smaller data distance:
			// a later goal with equal cost has strictly smaller δP (τ was
			// tightened below the previous goal's δP before it was found),
			// so it supersedes the previous result instead of joining it —
			// the sink holds the tail back until it is final.
			if err := sink.add(r); err != nil {
				batch.discard()
				prefetch.discard()
				return err
			}
			// Demand strictly fewer data changes for the next repair
			// (Algorithm 6, line 10).
			tau = coverSize*s.alpha - 1
			if tau < tauLow || tau < s.floor {
				batch.discard()
				break
			}
			// τ tightened underneath the speculative child scores: drop
			// them, re-estimate the open list, and re-score the children
			// under the new τ.
			batch.discard()
			if !s.Opt.BestFirst {
				stats.GCCalls += pq.Len() + len(childBuf)
			}
			pool.reestimate(*pq, tau)
			rebuilt := (*pq)[:0]
			for _, m := range *pq {
				if !math.IsInf(m.gc, 1) {
					m.index = len(rebuilt)
					rebuilt = append(rebuilt, m)
				}
			}
			*pq = rebuilt
			heap.Init(pq)
			batch = pool.startScore(childBuf, tau, scoreBuf)
		} else if !s.Opt.BestFirst {
			stats.GCCalls += len(childBuf)
		}
		scores := batch.wait()
		scoreBuf = scores // keep the (possibly grown) buffer for the next batch
		stats.Generated += len(childBuf)
		for i := range childBuf {
			if math.IsInf(scores[i].gc, 1) {
				continue // no goal state can descend from this child within τ
			}
			seq++
			heap.Push(pq, &node{state: childBuf[i], cost: scores[i].cost, gc: scores[i].gc, seq: seq})
		}
	}
	prefetch.discard()
	stats.Duration = time.Since(start)
	// A cancel that raced the final iterations must not be reported as
	// success: callers streaming partial results rely on the Canceled
	// verdict to know the frontier is incomplete.
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	if err := pool.err(); err != nil {
		return err
	}
	return sink.finish(stats)
}

// costCache adapts a weights.Func to the heuristic's costFunc, memoizing
// single-set weights (vector costs are sums of per-position weights).
type costCache struct {
	w     weights.Func
	cache map[relation.AttrSet]float64
}

func (c *costCache) weight(y relation.AttrSet) float64 {
	if y.IsEmpty() {
		return 0
	}
	if c.cache == nil {
		c.cache = make(map[relation.AttrSet]float64)
	}
	if v, ok := c.cache[y]; ok {
		return v
	}
	v := c.w.Weight(y)
	c.cache[y] = v
	return v
}

// StateCost returns dist_c(Σ, Σ′) for the extension vector.
func (c *costCache) StateCost(s State) float64 {
	total := 0.0
	for _, y := range s {
		total += c.weight(y)
	}
	return total
}

// Marginal returns w(cur ∪ {add}) − w(cur), clamped at 0 for safety against
// non-monotone user weightings.
func (c *costCache) Marginal(cur relation.AttrSet, add int) float64 {
	m := c.weight(cur.Add(add)) - c.weight(cur)
	if m < 0 {
		return 0
	}
	return m
}
