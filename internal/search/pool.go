package search

import (
	"runtime/debug"
	"sync"

	"relatrust/internal/conflict"
	"relatrust/internal/relation"
	"relatrust/internal/weights"
)

// This file implements the evaluation pool behind Options.Workers. With
// more than one worker, the pool runs worker goroutines, each owning a
// forked conflict.Analysis (shared immutable clusters, private cover
// scratch), a private costCache, and a private heuristic, so cover queries
// and gc(S) run lock-free. It parallelizes the three hot sections of the
// A* loop:
//
//  1. the children of a popped state are batch-scored (StateCost + gc)
//     across the workers before being pushed;
//  2. the goal-test cover query of the popped state runs while child
//     scoring is still in flight — including, via a speculative prefetch
//     of the predicted next pop, while the children of the previous pop
//     are still being scored — and fans out across the workers when it
//     touches many conflict components;
//  3. after a goal tightens τ, the open-list re-estimation fans out across
//     the workers.
//
// With one worker the pool is inline: it starts no goroutine, its worker
// is the searcher's own analysis, heuristic and cost cache, and a task
// runs on the coordinator only when its handle is waited — a discarded
// task never runs.
//
// Determinism: workers only compute pure functions of (state, τ) — cover
// queries on forked analyses and gc under memoized deterministic weights
// return bit-identical values on every worker — and the coordinator commits
// results in generation order with the same seq tie-breakers at every
// worker count, so which worker finishes first never influences the
// search. See run in astar.go.

// lockedWeights makes one weights.Func usable from every worker: the
// underlying implementations memoize into unsynchronized maps, so all
// cache misses funnel through one mutex. Per-worker costCaches absorb
// repeated lookups, keeping the lock off the steady-state path.
type lockedWeights struct {
	mu    sync.Mutex
	w     weights.Func
	cache map[relation.AttrSet]float64
}

func newLockedWeights(w weights.Func) *lockedWeights {
	return &lockedWeights{w: w, cache: make(map[relation.AttrSet]float64)}
}

// Weight implements weights.Func.
func (l *lockedWeights) Weight(y relation.AttrSet) float64 {
	l.mu.Lock()
	defer l.mu.Unlock() // a panicking weighting must not wedge the other workers
	v, ok := l.cache[y]
	if !ok {
		v = l.w.Weight(y)
		l.cache[y] = v
	}
	return v
}

// Name implements weights.Func.
func (l *lockedWeights) Name() string { return l.w.Name() }

// worker holds the per-goroutine state of the pool.
type worker struct {
	an    *conflict.Analysis
	h     *heuristic
	costs *costCache
	cover conflict.CoverStats // refinement effort of this pool's tasks
}

// evalPool runs evaluation tasks for one search call. Tasks are closures
// over result slots owned by the submitter; the pool guarantees that after
// the corresponding wait, all writes by the task happen-before the reader.
type evalPool struct {
	searcher *Searcher
	workers  []*worker
	tasks    chan func(*worker) // nil for the inline pool
	wg       sync.WaitGroup

	panicMu  sync.Mutex
	panicErr error // first worker panic, as a *PanicError
}

// newEvalPool builds the pool for n >= 1 workers. One worker makes the
// inline pool over the searcher's own state; more fork the searcher's
// analysis once per worker and start the worker goroutines.
func newEvalPool(s *Searcher, n int) *evalPool {
	p := &evalPool{searcher: s}
	if n == 1 {
		p.workers = []*worker{{an: s.An, h: s.h, costs: s.costs}}
		return p
	}
	p.workers = make([]*worker, n)
	// The buffer lets the coordinator queue a pop's cover query, its
	// prefetch and a child batch without blocking on busy workers.
	p.tasks = make(chan func(*worker), 4*n)
	lw := newLockedWeights(s.W)
	for i := range p.workers {
		costs := &costCache{w: lw}
		p.workers[i] = &worker{
			an:    s.An.Fork(),
			h:     s.h.fork(costs),
			costs: costs,
		}
	}
	p.wg.Add(n)
	for i := range p.workers {
		go func(w *worker) {
			defer p.wg.Done()
			for task := range p.tasks {
				p.run(w, task)
			}
		}(p.workers[i])
	}
	return p
}

// run executes one task under a recover so a panicking evaluation fails the
// sweep instead of crashing the process. The first panic is recorded (with
// its stack) for the coordinator, which checks err at every commit point;
// later panics are dropped. The worker keeps draining tasks afterwards —
// submitters still block on their completion signals, and every task
// completes its slot via defer, so wait() never deadlocks on a panicked
// task. The task's cover-query refinement effort is added to the worker's
// counters.
func (p *evalPool) run(w *worker, task func(*worker)) {
	before := w.an.CoverStats()
	defer func() {
		if r := recover(); r != nil {
			p.panicMu.Lock()
			if p.panicErr == nil {
				p.panicErr = &PanicError{Value: r, Stack: debug.Stack()}
			}
			p.panicMu.Unlock()
		}
		w.cover = w.cover.Add(w.an.CoverStats().Sub(before))
	}()
	task(w)
}

// err returns the first recorded worker panic, or nil.
func (p *evalPool) err() error {
	p.panicMu.Lock()
	defer p.panicMu.Unlock()
	return p.panicErr
}

// close shuts the pool down after all submitted tasks have run, folds the
// workers' cover-query counters into the searcher, and returns the forked
// analyses to the shared pool.
func (p *evalPool) close() {
	if p.tasks != nil {
		close(p.tasks)
		p.wg.Wait()
	}
	// After a panic the forks' private scratch may be mid-update; dropping
	// them instead of releasing keeps the shared analysis pool clean, so
	// the session stays usable for the next sweep.
	poisoned := p.err() != nil
	for _, w := range p.workers {
		p.searcher.coverStats = p.searcher.coverStats.Add(w.cover)
		if p.tasks != nil && !poisoned {
			w.an.Release()
		}
	}
}

// batch tracks a group of submitted tasks. Worker goroutines never cancel
// a task — they must not outlive the buffers a task reads — so discard
// waits for them; the inline pool holds its tasks in lazy until wait runs
// them on the coordinator, and discard drops them unrun.
type batch struct {
	p    *evalPool
	wg   sync.WaitGroup
	lazy []func(*worker)
}

// submit queues the task on the workers, or on the batch for an inline
// pool.
func (b *batch) submit(task func(*worker)) {
	if b.p.tasks == nil {
		b.lazy = append(b.lazy, task)
		return
	}
	b.wg.Add(1)
	b.p.tasks <- func(w *worker) {
		defer b.wg.Done()
		task(w)
	}
}

// wait runs the batch's lazy tasks and blocks until every task has run.
func (b *batch) wait() {
	for _, task := range b.lazy {
		b.p.run(b.p.workers[0], task)
	}
	b.lazy = nil
	b.wg.Wait()
}

// discard drops the tasks that have not run and waits for the rest.
func (b *batch) discard() {
	b.lazy = nil
	b.wg.Wait()
}

// coverTask is one in-flight cover query.
type coverTask struct {
	batch
	forNode *node        // the open-list node this query was started for, if any
	size    int          // the answer of a single-task query; -1 until it completes
	chunks  []coverChunk // the per-chunk delta sums of a fanned-out query
}

// coverChunk is one fan-out chunk's share of a decomposed cover query.
type coverChunk struct {
	dLen2, dPairs int64
	ok            bool
}

// coverChunkMin is the minimum number of affected components worth a
// fan-out chunk; below 2× this, one worker answers the whole query.
const coverChunkMin = 8

// startCover submits a cover query for the state through the component
// evaluator and returns without waiting. forNode tags speculative
// prefetches with the predicted node so the coordinator can match them
// against the actual next pop. With several workers and enough affected
// components, the components are chunked across the pool (cross-component
// parallelism per pop); smaller queries run as one task, where the
// per-component memo usually answers most of the work anyway.
func (p *evalPool) startCover(st State, forNode *node) *coverTask {
	t := &coverTask{batch: batch{p: p}, forNode: forNode, size: -1}
	ev := p.searcher.decomp
	var comps []int32
	if len(p.workers) > 1 {
		comps = ev.Affected(st)
	}
	if len(comps) < 2*coverChunkMin {
		t.submit(func(w *worker) { t.size = ev.CoverSize(w.an, st) })
		return t
	}
	n := min(len(p.workers), (len(comps)+coverChunkMin-1)/coverChunkMin)
	ev.CountParallel(len(comps))
	t.chunks = make([]coverChunk, n)
	per := (len(comps) + n - 1) / n
	for i := range t.chunks {
		c := &t.chunks[i]
		part := comps[i*per : min((i+1)*per, len(comps))]
		t.submit(func(w *worker) {
			c.dLen2, c.dPairs = ev.EvalDelta(w.an, part, st)
			c.ok = true
		})
	}
	return t
}

// wait blocks until the query finishes and returns the cover size, or -1
// if a task panicked. The chunk sums are integers, so the combined result
// is independent of chunk completion order.
func (t *coverTask) wait() int {
	t.batch.wait()
	if t.chunks == nil {
		return t.size
	}
	var dLen2, dPairs int64
	for _, c := range t.chunks {
		if !c.ok {
			return -1
		}
		dLen2 += c.dLen2
		dPairs += c.dPairs
	}
	return t.p.searcher.decomp.Combine(dLen2, dPairs)
}

// discard drops the query's result (a mispredicted prefetch, or an early
// exit).
func (t *coverTask) discard() {
	if t != nil {
		t.batch.discard()
	}
}

// childScore is the evaluation of one candidate child state.
type childScore struct {
	cost float64
	gc   float64
}

// scoreBatch is one in-flight batch evaluation of child states. Scores land
// at the index of their state, so gathering preserves generation order no
// matter which worker finished first.
type scoreBatch struct {
	batch
	scores []childScore
}

// startScore submits one evaluation task per child under the given τ. The
// states slice and the dst buffer (reused across batches once the previous
// batch was waited or discarded) must stay untouched until wait or discard
// returns; scores are written at their child's position.
func (p *evalPool) startScore(states []State, tau int, dst []childScore) *scoreBatch {
	if cap(dst) < len(states) {
		dst = make([]childScore, len(states))
	}
	b := &scoreBatch{batch: batch{p: p}, scores: dst[:len(states)]}
	heuristicOn := !p.searcher.Opt.BestFirst
	ds := p.searcher.ds
	for i, st := range states {
		b.submit(func(w *worker) {
			cost := w.costs.StateCost(st)
			gc := cost
			if heuristicOn {
				gc = w.h.gc(st, ds, tau)
			}
			b.scores[i] = childScore{cost: cost, gc: gc}
		})
	}
	return b
}

// wait blocks until every child of the batch is scored.
func (b *scoreBatch) wait() []childScore {
	b.batch.wait()
	return b.scores
}

// reestimate recomputes gc for every open-list node under the tightened τ,
// in contiguous chunks across the workers. Nodes keep their slice
// positions, so the caller's compaction pass visits them in the same order
// at every worker count.
func (p *evalPool) reestimate(nodes []*node, tau int) {
	if p.searcher.Opt.BestFirst {
		for _, m := range nodes {
			m.gc = m.cost
		}
		return
	}
	ds := p.searcher.ds
	chunk := (len(nodes) + 4*len(p.workers) - 1) / (4 * len(p.workers))
	if chunk < 1 {
		chunk = 1
	}
	b := &batch{p: p}
	for lo := 0; lo < len(nodes); lo += chunk {
		part := nodes[lo:min(lo+chunk, len(nodes))]
		b.submit(func(w *worker) {
			for _, m := range part {
				m.gc = w.h.gc(m.state, ds, tau)
			}
		})
	}
	b.wait()
}
