package relation

// The TANE partition product and the level-keyed partition store that
// FD discovery runs on. A level-wise discovery pass needs π(Z) for every
// attribute set Z of the current lattice level; computing each from
// scratch costs |Z| refinement passes over the whole instance. TANE
// (Huhtala et al.) instead derives π(Z) from the two level-(k−1) parents
// a prefix join already pairs up: π(X)·π(Y) = π(X∪Y), computed in
// O(|π(X)| + |π(Y)|) with a probe table. Stripped partitions (classes of
// size ≥ 2 only) make this exact: a tuple that is a singleton in either
// factor is a singleton in the product and thus stripped from it.

import "sync"

// Clone returns an owned deep copy of the partition, detached from any
// partitioner scratch — the form a PartitionStore holds.
func (p Partition) Clone() Partition {
	out := Partition{
		Tuples:  make([]int32, len(p.Tuples)),
		Offsets: make([]int32, len(p.Offsets)),
	}
	copy(out.Tuples, p.Tuples)
	copy(out.Offsets, p.Offsets)
	return out
}

// Product computes the stripped product x·y: the stripped partition of
// X∪Y given the stripped partitions of X and Y over the same instance.
// One pass marks each tuple with its x-class in a probe table; a second
// pass splits every y-class by those marks, dropping tuples unmarked in
// the table (singletons of π(X)) and product classes that collapse below
// size 2. Classes appear in y-class order, x-class first-encounter order
// within each, with relative tuple order preserved — deterministic, though
// not necessarily the encounter order a from-scratch refinement would
// produce (partition consumers must not depend on class order).
//
// Unlike Refine/Split results, the returned partition is freshly
// allocated and owned by the caller — it is safe to cache (and that is
// its purpose). Product does not disturb the current partition.
func (p *Partitioner) Product(x, y Partition) Partition {
	n := p.in.N()
	if len(p.prodCls) < n {
		p.prodCls = make([]int32, n)
		p.prodEpoch = make([]uint64, n)
	}
	p.prodVer++
	for ci := 0; ci < x.NumGroups(); ci++ {
		for _, t := range x.Group(ci) {
			p.prodCls[t] = int32(ci)
			p.prodEpoch[t] = p.prodVer
		}
	}
	if xg := x.NumGroups(); len(p.pcCnt) < xg {
		p.pcCnt = make([]int32, xg)
		p.pcPos = make([]int32, xg)
		p.pcEpoch = make([]uint64, xg)
	}
	bound := len(x.Tuples)
	if len(y.Tuples) < bound {
		bound = len(y.Tuples)
	}
	out := Partition{
		Tuples:  make([]int32, 0, bound),
		Offsets: make([]int32, 1, 8),
	}
	seen := p.seen[:0]
	for gi := 0; gi < y.NumGroups(); gi++ {
		g := y.Group(gi)
		p.pcVer++
		seen = seen[:0]
		for _, t := range g {
			if p.prodEpoch[t] != p.prodVer {
				continue // singleton in π(X) ⇒ singleton in the product
			}
			c := p.prodCls[t]
			if p.pcEpoch[c] != p.pcVer {
				p.pcEpoch[c] = p.pcVer
				p.pcCnt[c] = 0
				seen = append(seen, c)
			}
			p.pcCnt[c]++
		}
		// Lay out the surviving subgroups, then scatter stably. Classes
		// that collapsed to singletons are parked at position -1.
		base := int32(len(out.Tuples))
		grown := false
		for _, c := range seen {
			if p.pcCnt[c] < 2 {
				p.pcPos[c] = -1
				continue
			}
			p.pcPos[c] = base
			base += p.pcCnt[c]
			out.Offsets = append(out.Offsets, base)
			grown = true
		}
		if !grown {
			continue
		}
		out.Tuples = out.Tuples[:base]
		for _, t := range g {
			if p.prodEpoch[t] != p.prodVer {
				continue
			}
			c := p.prodCls[t]
			if pos := p.pcPos[c]; pos >= 0 {
				out.Tuples[pos] = t
				p.pcPos[c]++
			}
		}
	}
	p.seen = seen[:0]
	return out
}

// PartitionStore caches owned stripped partitions keyed by attribute set,
// grouped by level (|X|) so a level-wise consumer can evict a whole level
// once it stops being a parent. Discovery hangs one store off the shared
// session engine, so repeated mining passes over a warm dataset skip the
// partitions they already computed; Put expects partitions detached from
// any partitioner scratch (Product results, or Clone'd refinements).
// Stored partitions are immutable — concurrent readers may share them,
// and eviction only forgets the reference, never the backing arrays, so
// a reader holding a partition across an eviction stays valid.
//
// A PartitionStore is safe for concurrent use.
type PartitionStore struct {
	mu     sync.Mutex
	levels map[int]map[AttrSet]Partition
	count  int
	peak   int
}

// NewPartitionStore returns an empty store.
func NewPartitionStore() *PartitionStore {
	return &PartitionStore{levels: make(map[int]map[AttrSet]Partition)}
}

// Get returns the cached stripped partition of X.
func (s *PartitionStore) Get(X AttrSet) (Partition, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pt, ok := s.levels[X.Len()][X]
	return pt, ok
}

// Put caches the stripped partition of X. pt must be owned (not aliasing
// partitioner scratch) and must not be mutated afterwards.
func (s *PartitionStore) Put(X AttrSet, pt Partition) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lvl := s.levels[X.Len()]
	if lvl == nil {
		lvl = make(map[AttrSet]Partition)
		s.levels[X.Len()] = lvl
	}
	if _, ok := lvl[X]; !ok {
		s.count++
		if s.count > s.peak {
			s.peak = s.count
		}
	}
	lvl[X] = pt
}

// EvictLevel drops every cached partition with |X| == level. Level-wise
// discovery calls it for level k−1 once level k is fully built, bounding
// the working set to two adjacent levels (its caller never evicts the
// single-attribute level or the top level, which stay for cross-run reuse).
func (s *PartitionStore) EvictLevel(level int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.count -= len(s.levels[level])
	delete(s.levels, level)
}

// Len returns the number of cached partitions.
func (s *PartitionStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Peak returns the largest number of partitions ever cached at once —
// the regression guard against unbounded level retention.
func (s *PartitionStore) Peak() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}
