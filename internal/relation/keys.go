package relation

// Key tables. The data repair (Algorithm 4) indexes the clean part of an
// instance by each constraint's LHS projection, once per frontier point.
// The projection of a source row never changes, so the part of that index
// that depends only on the instance — which rows share an LHS projection,
// and which projections exist at all — is built once per attribute set
// and instance and reused by every point: a KeyTable. A point then fills
// its own RHS slots by key id in one linear pass, and a KeyOverlay keys
// the few tuples it rewrites into projections no source row holds.

import (
	"math/bits"
	"slices"
	"sync"
)

// KeyTable assigns every row of an instance a dense key id of its
// projection on an attribute set X: rows t and u get the same id iff they
// agree (cell-wise Equal) on every attribute of X. A one-attribute table's
// ids are the attribute's codes; a larger X folds the codes of its largest
// attribute onto the ids of the table of the rest of X (its prefix)
// through a pair table, so tables for X ∪ {a} and X ∪ {b} share the table
// of X. A KeyTable is immutable and safe for concurrent readers.
type KeyTable struct {
	attr   int         // the largest attribute of X
	levels []*KeyTable // the tables of X's prefixes by size, this one last
	ids    []int32     // ids[t] is row t's key id
	n      int32       // key ids are in [0, n)
	pairs  pairTable   // (prefix id, code of attr) → id; empty when |X| = 1
}

// IDs returns the key id of every row. The slice is shared; it must not be
// modified.
func (k *KeyTable) IDs() []int32 { return k.ids }

// Len returns the number of key ids: every id is in [0, Len()).
func (k *KeyTable) Len() int32 { return k.n }

// KeyTables caches the key tables of one instance, one per attribute set,
// each built on first request from the instance's code columns and the
// cached table of its prefix. It is safe for concurrent use: a table is
// built once, by its first requester, while later requesters of the same
// set wait; requesters of other sets are not blocked, and no lock is held
// while a table is built. The instance must not be mutated while its
// tables are in use.
type KeyTables struct {
	in     *Instance
	mu     sync.Mutex
	tables map[AttrSet]*keyEntry
}

type keyEntry struct {
	once sync.Once
	t    *KeyTable
}

// NewKeyTables returns an empty key-table cache over the instance.
func NewKeyTables(in *Instance) *KeyTables {
	return &KeyTables{in: in, tables: make(map[AttrSet]*keyEntry)}
}

// Get returns the key table of the non-empty attribute set X, building it
// and its prefixes on first request.
func (s *KeyTables) Get(X AttrSet) *KeyTable {
	s.mu.Lock()
	e := s.tables[X]
	if e == nil {
		e = &keyEntry{}
		s.tables[X] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.t = s.build(X) })
	return e.t
}

// Len returns the number of cached tables: one per distinct attribute set
// ever requested, prefixes included.
func (s *KeyTables) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tables)
}

// build makes the table of X from the code column of X's largest
// attribute and, for |X| ≥ 2, the cached table of the rest.
func (s *KeyTables) build(X AttrSet) *KeyTable {
	a := X.Max()
	codes, n := s.in.Codes(a)
	rest := X.Remove(a)
	if rest.IsEmpty() {
		k := &KeyTable{attr: a, ids: codes, n: n}
		k.levels = []*KeyTable{k}
		return k
	}
	p := s.Get(rest)
	k := &KeyTable{attr: a, ids: make([]int32, len(codes))}
	k.levels = append(slices.Clip(p.levels), k)
	// Each row adds at most one pair, and there are no more pairs than
	// prefix ids times codes, so the smaller bounds the table; it is
	// right-sized afterwards, since it lives as long as the cache.
	pt := newPairTable(min(len(codes), int(p.n)*int(n)))
	for t, c := range codes {
		k.ids[t] = pt.intern(p.ids[t], c)
	}
	k.pairs = pt.compact()
	k.n = int32(len(k.pairs.pairs))
	return k
}

// KeyOverlay keys tuples under construction on a key table's attribute
// set X: a tuple whose projection some row holds gets that row's id, and
// any other projection gets an id at or above the table's Len(), interned
// in the overlay. Cells are given as codes indexed by attribute, in the
// table's code space extended past each column's count: a code at or
// above the column's count stands for a value no row holds, and a
// negative code for a value nothing has been keyed with yet. An overlay is
// not safe for concurrent use.
type KeyOverlay struct {
	levels   []*KeyTable // the table's levels: levels[j] has j+1 attributes
	extra    []pairTable // extra[j-1] holds the pairs of level j that levels[j] lacks
	capacity int
}

// Overlay returns an empty overlay over the table for up to capacity
// Intern calls.
func (k *KeyTable) Overlay(capacity int) *KeyOverlay {
	return &KeyOverlay{levels: k.levels, extra: make([]pairTable, len(k.levels)-1), capacity: capacity}
}

// Lookup returns the id of the projection of codes, if a row of the
// instance or an earlier Intern holds it.
func (o *KeyOverlay) Lookup(codes []int32) (int32, bool) {
	k := codes[o.levels[0].attr]
	if k < 0 {
		return 0, false
	}
	for j, t := range o.levels[1:] {
		c := codes[t.attr]
		if c < 0 {
			return 0, false
		}
		if id, ok := t.pairs.lookup(k, c); ok {
			k = id
			continue
		}
		id, ok := o.extra[j].lookup(k, c)
		if !ok {
			return 0, false
		}
		k = t.n + id
	}
	return k, true
}

// Intern returns the id of the projection of codes, interning it in the
// overlay if neither a row nor an earlier Intern holds it. Every code on X
// must be non-negative.
func (o *KeyOverlay) Intern(codes []int32) int32 {
	k := codes[o.levels[0].attr]
	for j, t := range o.levels[1:] {
		c := codes[t.attr]
		if id, ok := t.pairs.lookup(k, c); ok {
			k = id
			continue
		}
		if o.extra[j].index == nil {
			o.extra[j] = newPairTable(o.capacity)
		}
		k = t.n + o.extra[j].intern(k, c)
	}
	return k
}

// pairTable interns (key, code) pairs of non-negative int32s to dense ids
// 0, 1, 2, … in an open-addressing table sized once for the pairs it may
// hold, so it never grows. The probe slots hold only an id (plus one; 0
// marks an empty slot) and the pairs sit densely by id, so a table costs
// 8 bytes per pair for the pairs and at most 12 per pair for the slots.
type pairTable struct {
	index []int32
	pairs []uint64 // pairs[id] is the packed pair
	shift uint
}

// newPairTable returns a table for up to capacity pairs at a load of at
// most 2/3.
func newPairTable(capacity int) pairTable {
	b := bits.Len(uint(capacity + capacity/2))
	return pairTable{index: make([]int32, 1<<b), pairs: make([]uint64, 0, capacity), shift: uint(64 - b)}
}

// slot returns the index slot holding key, or the empty slot where it
// belongs.
func (p *pairTable) slot(key uint64) *int32 {
	mask := len(p.index) - 1
	for i := int((key * 0x9E3779B97F4A7C15) >> p.shift); ; i = (i + 1) & mask {
		if s := &p.index[i]; *s == 0 || p.pairs[*s-1] == key {
			return s
		}
	}
}

func (p *pairTable) intern(k, c int32) int32 {
	key := uint64(k)<<32 | uint64(c)
	s := p.slot(key)
	if *s == 0 {
		p.pairs = append(p.pairs, key)
		*s = int32(len(p.pairs))
	}
	return *s - 1
}

// lookup returns the id of (k, c); the zero pairTable holds no pair.
func (p *pairTable) lookup(k, c int32) (int32, bool) {
	if len(p.index) == 0 {
		return 0, false
	}
	s := p.slot(uint64(k)<<32 | uint64(c))
	return *s - 1, *s != 0
}

// compact returns a copy of the table sized for the pairs it holds, with
// the same ids.
func (p *pairTable) compact() pairTable {
	q := newPairTable(len(p.pairs))
	q.pairs = append(q.pairs, p.pairs...)
	for id, key := range q.pairs {
		*q.slot(key) = int32(id + 1)
	}
	return q
}
