package relation

import "sync"

// PartitionStore caches owned stripped partitions keyed by attribute set,
// grouped by level (|X|) so a level-wise consumer can evict a whole level
// once it stops being a parent. Discovery hangs one store off the shared
// session engine, so repeated mining passes over a warm dataset skip the
// partitions they already computed. Put expects partitions detached from
// any partitioner scratch, as RefineStripped returns them. Stored
// partitions are immutable — concurrent readers may share them,
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
