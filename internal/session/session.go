// Package session provides the shared repair-session engine: the single
// construction path for conflict analyses across the repair, baseline, cfd
// and search layers.
//
// The repair system repeatedly re-analyzes the *same* instance under the
// same Σ — per τ in Sampling-Repair, per cost ratio in the uniform-cost
// baseline sweep, per facade call in a CLI run. Building a fresh
// conflict.Analysis each time pays the full cluster construction
// (O(|Σ|·n) work and ~dozens of allocations for arenas and scratch) for
// state that is immutable after New. An Engine builds one root analysis
// per distinct FD set and serves every subsequent request a Fork of it:
// forks share the instance, its dictionary-code columns and the cluster
// arenas, own private cover scratch, and are recycled through the root's
// fork pool on Release — so a warm Acquire/Release cycle allocates
// nothing.
//
// # Ownership and lifecycle
//
// An Engine is bound to one relation.Instance, which must not be mutated
// while the engine is in use (the cached roots alias its tuples and code
// columns; this is the same contract conflict.New already imposes, now
// held for the engine's lifetime). Roots are cached forever — an engine's
// memory is proportional to the number of distinct FD sets analyzed
// through it, which in practice is one or two.
//
// The data repair's key tables (KeyTables) are cached the same way and
// are bounded the same way: an engine holds one key table per distinct LHS
// prefix of the FD sets Σ′ it materialized repairs for — for an LHS whose
// attributes are a1 < a2 < … < ak, the sets {a1}, {a1, a2}, …, {a1, …, ak}
// — and no more, however many sweeps run over it. A one-attribute table
// is the instance's code column itself; a larger one costs four bytes per
// row plus at most twenty per distinct projection. They answer for the
// engine's snapshot only and are dropped with it.
//
// Acquire and Release are safe for concurrent use: the root map is
// mutex-guarded (the first acquirer of a set builds the root while
// concurrent acquirers of the same set wait, then fork), and forking and
// releasing go through the root's sync.Pool. Each *acquired analysis* is
// single-goroutine, exactly like one obtained from conflict.New; after
// Release the caller must not touch it — the scratch is handed to the next
// Acquire, with its cover counters reset so none leaks from one owner to
// the next.
package session

import (
	"fmt"
	"sync"

	"relatrust/internal/components"
	"relatrust/internal/conflict"
	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/weights"
)

// Engine owns one instance and the cached root analyses built against it.
type Engine struct {
	// In is the analyzed instance. It must not be mutated while the
	// engine is in use.
	In *relation.Instance

	// generation identifies which version of a live dataset this engine is
	// bound to. Engines are immutable in this respect: a mutation batch
	// builds a NEW engine over the new instance (seeded with spliced roots
	// via NewSeeded), so every analysis an engine ever hands out — including
	// re-acquires during an in-flight sweep's materialization — answers for
	// one consistent snapshot. 0 for engines outside the live tier.
	generation int64

	mu       sync.Mutex
	roots    []rootEntry
	acquires int64
	builds   int64

	// parts caches stripped partitions for FD discovery over this
	// engine's instance, built lazily on first use. Like the roots, it
	// answers for exactly one snapshot: a live-dataset mutation builds a
	// new engine and therefore a fresh, empty store.
	parts   *relation.PartitionStore
	weights *weights.Source     // built on first use, like parts
	keys    *relation.KeyTables // built on first use, like parts
}

// rootEntry is one cached root: identified by its FD set (compared
// element-wise, so the warm Acquire path allocates nothing) plus, for
// filtered analyses, the caller-supplied filter key. An engine typically
// holds one or two roots, so a linear scan beats any keyed structure.
type rootEntry struct {
	sigma     fd.Set
	filterKey string
	root      *conflict.Analysis
	// decomp is the root's conflict-hypergraph component evaluator, built
	// on first request (see CoverEvaluator) and shared by every searcher
	// over this root — so repeated sweeps skip the component build and
	// share one per-component memo.
	decomp *components.Evaluator
}

// New returns an engine over the instance.
func New(in *relation.Instance) *Engine {
	return &Engine{In: in}
}

// NewAt returns an engine over the instance pinned to a mutation
// generation (see Generation).
func NewAt(in *relation.Instance, generation int64) *Engine {
	return &Engine{In: in, generation: generation}
}

// Generation returns the mutation generation the engine's instance
// represents; 0 outside the live tier.
func (e *Engine) Generation() int64 { return e.generation }

// Root is one exported unfiltered root: the FD set it answers for, its
// root analysis, and its component evaluator (nil if never requested).
// The live tier exports a generation's roots, splices their clusters and
// evaluators against a mutation batch, and seeds the next generation's
// engine with the results.
type Root struct {
	Sigma     fd.Set
	Analysis  *conflict.Analysis
	Evaluator *components.Evaluator
}

// ExportRoots returns the engine's unfiltered roots. Filtered (CFD) roots
// are omitted — their filters are opaque, so a successor engine rebuilds
// them on demand. The returned analyses and evaluators are the cached
// originals: callers must treat them as read-only.
func (e *Engine) ExportRoots() []Root {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []Root
	for i := range e.roots {
		r := &e.roots[i]
		if r.filterKey == "" {
			out = append(out, Root{Sigma: r.sigma, Analysis: r.root, Evaluator: r.decomp})
		}
	}
	return out
}

// NewSeeded returns an engine over the instance at the given generation
// whose root cache is pre-populated: each seed's analysis (and evaluator,
// when non-nil) is installed as the cached root for its FD set, exactly as
// if the engine had built it. Seeds must be built over the same instance.
func NewSeeded(in *relation.Instance, generation int64, seeds []Root) *Engine {
	e := &Engine{In: in, generation: generation}
	for _, s := range seeds {
		e.roots = append(e.roots, rootEntry{
			sigma:  s.Sigma.Clone(),
			root:   s.Analysis,
			decomp: s.Evaluator,
		})
	}
	return e
}

// For returns eng unchanged when non-nil, or a fresh single-use engine
// over the instance — the idiom of entry points whose configuration makes
// the shared engine optional. A non-nil engine must have been built over
// the same instance; the mismatch is reported as an error because a cached
// root of a different instance would silently answer every query about the
// wrong data.
func For(eng *Engine, in *relation.Instance) (*Engine, error) {
	if eng == nil {
		return New(in), nil
	}
	if eng.In != in {
		return nil, fmt.Errorf("session: engine is bound to a different instance")
	}
	return eng, nil
}

// Acquire returns an analysis of the engine's instance against sigma,
// forked from a root built once per distinct FD set. The caller owns the
// returned analysis until Release; it answers exactly the queries — with
// byte-identical results — of conflict.New(e.In, sigma). A warm Acquire
// (root cached, fork pool non-empty) allocates nothing.
func (e *Engine) Acquire(sigma fd.Set) *conflict.Analysis {
	return e.acquire(sigma, nil, "")
}

// AcquireFiltered is Acquire for filtered analyses (conditional
// constraints restrict each FD to its pattern-matching tuples). Filters
// are opaque functions, so the caller must supply the non-empty cache key
// that identifies their semantics — for CFDs, a rendering of the full set
// including patterns. An empty key would name the unfiltered root, so it
// panics.
func (e *Engine) AcquireFiltered(sigma fd.Set, filters []func(relation.Tuple) bool, key string) *conflict.Analysis {
	if key == "" {
		panic("session: AcquireFiltered needs a non-empty filter key")
	}
	return e.acquire(sigma, filters, key)
}

// acquire returns a fork of the root cached under (sigma, filterKey),
// building the root on first use. Concurrent acquirers of the same set
// wait for the first build, then fork it.
func (e *Engine) acquire(sigma fd.Set, filters []func(relation.Tuple) bool, filterKey string) *conflict.Analysis {
	e.mu.Lock()
	e.acquires++
	root := e.rootLocked(sigma, filters, filterKey).root
	e.mu.Unlock()
	return root.Fork()
}

// rootLocked returns the root entry cached under (sigma, filterKey),
// building its analysis on first use. The caller holds e.mu; the entry
// pointer is valid until the lock is released.
func (e *Engine) rootLocked(sigma fd.Set, filters []func(relation.Tuple) bool, filterKey string) *rootEntry {
	for i := range e.roots {
		r := &e.roots[i]
		if r.filterKey == filterKey && r.sigma.Equal(sigma) {
			return r
		}
	}
	e.builds++
	e.roots = append(e.roots, rootEntry{
		sigma:     sigma.Clone(),
		filterKey: filterKey,
		root:      conflict.NewFiltered(e.In, sigma, filters),
	})
	return &e.roots[len(e.roots)-1]
}

// CoverEvaluator returns the component evaluator of the unfiltered root
// for sigma, building the root and the decomposition on first use. The
// evaluator is shared: it is safe for any number of concurrent searchers,
// each running queries against its own acquired fork of the same root.
// Building under the engine mutex mirrors Acquire — concurrent requesters
// of the same set wait for the first decomposition, then share it.
func (e *Engine) CoverEvaluator(sigma fd.Set) *components.Evaluator {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.rootLocked(sigma, nil, "")
	if r.decomp == nil {
		r.decomp = components.NewEvaluator(r.root)
	}
	return r.decomp
}

// Release returns an acquired analysis to its root's pool for reuse by a
// later Acquire. The caller must not use the analysis afterwards. A nil
// analysis is ignored.
func (e *Engine) Release(a *conflict.Analysis) {
	if a != nil {
		a.Release()
	}
}

// Partitions returns the engine's shared stripped-partition store,
// creating it on first use. Discovery runs over the same session reuse
// each other's partitions (level-1 and top-level partitions survive
// level-wise eviction); the store answers for this engine's snapshot
// only, so cross-generation reuse never happens.
func (e *Engine) Partitions() *relation.PartitionStore {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.parts == nil {
		e.parts = relation.NewPartitionStore()
	}
	return e.parts
}

// Weights returns the engine's shared weight source, creating it on first
// use. Every sweep over this engine's snapshot prices LHS extensions from
// its one memo, so no sweep re-refines a set an earlier one priced.
func (e *Engine) Weights() *weights.Source {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.weights == nil {
		e.weights = weights.NewSource(e.In)
	}
	return e.weights
}

// KeyTables returns the engine's shared key-table cache, creating it on
// first use. Every data repair over this engine's snapshot keys its clean
// index by these tables, so a frontier point builds no LHS table a
// previous point (or a previous sweep) already built. Tables are built
// outside the engine mutex, so a cold build never delays Acquire.
func (e *Engine) KeyTables() *relation.KeyTables {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.keys == nil {
		e.keys = relation.NewKeyTables(e.In)
	}
	return e.keys
}

// Stats reports engine effort: how many analyses were handed out and how
// many required a from-scratch cluster build. Acquires−Builds is the
// number of constructions the engine avoided.
type Stats struct {
	Acquires int64
	Builds   int64
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{Acquires: e.acquires, Builds: e.builds}
}
