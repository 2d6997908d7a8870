package relation

// Dictionary encoding. Every hot path of the repair system groups tuples by
// equality of projections; doing that with concatenated string keys costs
// an allocation and a string hash per tuple per query. This file replaces
// the string machinery with dense int32 value codes:
//
//   - Dict interns Values (constants and variables alike) to dense codes;
//     two cells receive the same code iff Value.Equal holds.
//   - Instance.Codes(a) lazily materializes the code column of attribute a.
//     Columns are cached on the instance and dropped by Clone, so a cloned
//     instance that is subsequently mutated never sees stale codes.
//   - Partitioner refines tuple groups one attribute at a time by direct
//     code indexing — a radix-style scatter into epoch-versioned scratch
//     arrays, no hashing — and is allocation-free once its buffers have
//     grown to the working-set size.
//   - ProjCoder interns projections of standalone tuples (tuples under
//     construction, not rows of an instance) to a single int32 via pair
//     interning, replacing string projection keys in the clean indexes of
//     the repair algorithms.

import (
	"math/bits"
	"sync"
)

// Dict interns Values to dense int32 codes 0, 1, 2, … in first-encounter
// order. Two values receive the same code iff they are Equal: Value is
// canonically constructed (Const sets only the payload, VarGen.Fresh sets
// only the identity), so Go's == on Value coincides with Equal and a plain
// map works without building string keys. The zero Dict is ready to use.
type Dict struct {
	m map[Value]int32
}

// Code returns the code of v, interning it if unseen.
func (d *Dict) Code(v Value) int32 {
	if d.m == nil {
		d.m = make(map[Value]int32)
	}
	if c, ok := d.m[v]; ok {
		return c
	}
	c := int32(len(d.m))
	d.m[v] = c
	return c
}

// Lookup returns the code of v without interning; ok is false if v has
// never been seen.
func (d *Dict) Lookup(v Value) (int32, bool) {
	c, ok := d.m[v]
	return c, ok
}

// Len returns the number of distinct values interned.
func (d *Dict) Len() int { return len(d.m) }

// codeColumn is one materialized per-attribute code column.
type codeColumn struct {
	codes []int32 // codes[t] is the code of Tuples[t][a]
	n     int32   // number of distinct codes (codes are in [0, n))
}

// codeCache holds the lazily built columns of an instance. The mutex makes
// concurrent lazy builds safe (several goroutines may analyze one shared,
// no-longer-mutated instance); consumers cache the returned slices, so the
// lock is off every per-query path.
type codeCache struct {
	mu   sync.Mutex
	cols []*codeColumn
}

// Codes returns the code column of attribute a and the number of distinct
// codes in it: codes[t] == codes[u] iff Tuples[t][a].Equal(Tuples[u][a]).
// The column is built on first use and cached; appending tuples invalidates
// it automatically (the length check fails), but callers that mutate cells
// in place must call InvalidateCodes before the next Codes call. Clone does
// not carry the cache over, so the common pattern — clone, then rewrite the
// clone — needs no invalidation.
func (in *Instance) Codes(a int) ([]int32, int32) {
	in.codes.mu.Lock()
	defer in.codes.mu.Unlock()
	if in.codes.cols == nil {
		in.codes.cols = make([]*codeColumn, in.Schema.Width())
	}
	col := in.codes.cols[a]
	if col == nil || len(col.codes) != len(in.Tuples) {
		var d Dict
		codes := make([]int32, len(in.Tuples))
		for t, tup := range in.Tuples {
			codes[t] = d.Code(tup[a])
		}
		col = &codeColumn{codes: codes, n: int32(d.Len())}
		in.codes.cols[a] = col
	}
	return col.codes, col.n
}

// InvalidateCodes drops every cached code column. Call it after mutating
// cells of an instance whose columns may already have been built.
func (in *Instance) InvalidateCodes() {
	in.codes.mu.Lock()
	in.codes.cols = nil
	in.codes.mu.Unlock()
}

// InvalidateCodesFor drops only the cached code columns of the attributes
// in X, leaving the others warm. Callers that rewrite a known subset of
// cells (a targeted mutation batch, a single-cell Set) use this instead of
// InvalidateCodes so untouched columns keep their lazily built encoding.
func (in *Instance) InvalidateCodesFor(X AttrSet) {
	in.codes.mu.Lock()
	if in.codes.cols != nil {
		for _, a := range X.Attrs() {
			if a < len(in.codes.cols) {
				in.codes.cols[a] = nil
			}
		}
	}
	in.codes.mu.Unlock()
}

// SetCodes installs an externally maintained code column for attribute a:
// codes[t] must be the code of Tuples[t][a] under some dictionary with n
// distinct codes (codes in [0, n), equal codes iff Equal cells). The live
// mutation tier uses this to hand a freshly spliced instance columns it
// already keeps current, instead of paying a full re-encoding scan per
// batch. len(codes) must equal the instance's tuple count — Codes would
// otherwise discard the column and rebuild.
func (in *Instance) SetCodes(a int, codes []int32, n int32) {
	in.codes.mu.Lock()
	if in.codes.cols == nil {
		in.codes.cols = make([]*codeColumn, in.Schema.Width())
	}
	in.codes.cols[a] = &codeColumn{codes: codes, n: n}
	in.codes.mu.Unlock()
}

// Partition is an ordered partition of tuple indices, stored flat: group i
// is Tuples[Offsets[i]:Offsets[i+1]]. The flat layout is deliberate — the
// conflict analysis runs two-pointer sweeps across group boundaries
// directly on Tuples. Partitions returned by Partitioner alias its scratch
// and are valid only until the next call that produces one.
type Partition struct {
	Tuples  []int32
	Offsets []int32 // len = NumGroups()+1, starts at 0
}

// NumGroups returns the number of groups.
func (p Partition) NumGroups() int { return len(p.Offsets) - 1 }

// Group returns group i. The slice aliases the partitioner's scratch.
func (p Partition) Group(i int) []int32 { return p.Tuples[p.Offsets[i]:p.Offsets[i+1]] }

// Len returns the total number of tuples across all groups.
func (p Partition) Len() int { return len(p.Tuples) }

// partBuf is one flat partition buffer.
type partBuf struct {
	tuples  []int32
	offsets []int32
}

// Partitioner refines tuple groups by one attribute at a time using direct
// code indexing. A refinement pass is a counting scatter: for each group,
// occurrences per code are counted into epoch-versioned slot arrays (no
// clearing pass between groups), subgroup bases are laid out in
// first-encounter order of the codes, and members are scattered stably —
// subgroups preserve the relative tuple order of their parent. After the
// buffers have grown to the working-set size, no call allocates.
//
// A Partitioner is bound to one instance, whose tuples must not change
// while the partitioner is in use. It is not safe for concurrent use.
type Partitioner struct {
	in   *Instance
	cols [][]int32 // cached Codes columns, indexed by attribute

	// slot arrays indexed by value code, versioned by epoch so groups
	// never clear them.
	slotCnt   []int32
	slotPos   []int32
	slotEpoch []uint64
	epoch     uint64
	seen      []int32 // codes of the current group in encounter order

	cur, nxt partBuf // ping-pong buffers for Refine
	split    partBuf // separate output for Split

	// Product scratch (see product.go): a tuple→x-class probe table and
	// per-x-class counters, both epoch-versioned so calls never clear them.
	prodCls   []int32
	prodEpoch []uint64
	prodVer   uint64
	pcCnt     []int32
	pcPos     []int32
	pcEpoch   []uint64
	pcVer     uint64
}

// NewPartitioner returns a partitioner over the instance.
func NewPartitioner(in *Instance) *Partitioner {
	return &Partitioner{in: in}
}

// col returns the cached code column of attribute a, fetching it from the
// instance and sizing the slot arrays on first use.
func (p *Partitioner) col(a int) []int32 {
	if p.cols == nil {
		p.cols = make([][]int32, p.in.Schema.Width())
	}
	if c := p.cols[a]; c != nil {
		return c
	}
	codes, n := p.in.Codes(a)
	if codes == nil {
		codes = []int32{} // distinguish "cached empty" from "not fetched"
	}
	p.cols[a] = codes
	if int(n) > len(p.slotCnt) {
		p.slotCnt = make([]int32, n)
		p.slotPos = make([]int32, n)
		p.slotEpoch = make([]uint64, n)
	}
	return codes
}

// Begin starts a new partition holding the given tuples as a single group
// (copied; the argument may alias anything).
func (p *Partitioner) Begin(tuples []int32) {
	if cap(p.cur.tuples) < len(tuples) {
		p.cur.tuples = make([]int32, len(tuples))
	} else {
		p.cur.tuples = p.cur.tuples[:len(tuples)]
	}
	copy(p.cur.tuples, tuples)
	p.cur.offsets = append(p.cur.offsets[:0], 0)
	if len(tuples) > 0 {
		p.cur.offsets = append(p.cur.offsets, int32(len(tuples)))
	}
}

// BeginAll starts a new partition holding every tuple of the instance as a
// single group.
func (p *Partitioner) BeginAll() {
	n := p.in.N()
	if cap(p.cur.tuples) < n {
		p.cur.tuples = make([]int32, n)
	} else {
		p.cur.tuples = p.cur.tuples[:n]
	}
	for t := range p.cur.tuples {
		p.cur.tuples[t] = int32(t)
	}
	p.cur.offsets = append(p.cur.offsets[:0], 0)
	if n > 0 {
		p.cur.offsets = append(p.cur.offsets, int32(n))
	}
}

// Refine splits every group of the current partition by attribute a.
// Subgroups appear in first-encounter order of a's codes within their
// parent group and preserve relative tuple order (stable).
func (p *Partitioner) Refine(a int) {
	col := p.col(a)
	src, dst := &p.cur, &p.nxt
	if cap(dst.tuples) < len(src.tuples) {
		dst.tuples = make([]int32, 0, len(src.tuples))
	} else {
		dst.tuples = dst.tuples[:0]
	}
	dst.offsets = append(dst.offsets[:0], 0)
	for gi := 0; gi+1 < len(src.offsets); gi++ {
		g := src.tuples[src.offsets[gi]:src.offsets[gi+1]]
		if len(g) == 1 {
			dst.tuples = append(dst.tuples, g[0])
			dst.offsets = append(dst.offsets, int32(len(dst.tuples)))
			continue
		}
		p.scatter(dst, g, col)
	}
	p.cur, p.nxt = p.nxt, p.cur
}

// RefineSet refines by every attribute of X in ascending order.
func (p *Partitioner) RefineSet(X AttrSet) {
	for x := uint64(X); x != 0; x &= x - 1 {
		p.Refine(bits.TrailingZeros64(x))
	}
}

// Partition returns the current partition. It aliases the partitioner's
// scratch and is valid until the next Begin/BeginAll/Refine call; Split
// does not disturb it.
func (p *Partitioner) Partition() Partition {
	return Partition{Tuples: p.cur.tuples, Offsets: p.cur.offsets}
}

// Split partitions one group by attribute a without disturbing the current
// partition — the RHS-subgrouping primitive of the conflict analysis. The
// result is valid until the next Split call.
func (p *Partitioner) Split(g []int32, a int) Partition {
	col := p.col(a)
	p.split.tuples = p.split.tuples[:0]
	p.split.offsets = append(p.split.offsets[:0], 0)
	if len(g) > 0 {
		p.scatter(&p.split, g, col)
	}
	return Partition{Tuples: p.split.tuples, Offsets: p.split.offsets}
}

// scatter appends the subgroups of g under col to dst: one counting pass
// over g records per-code counts and the encounter order, then subgroup
// bases are laid out and members scattered stably. g must not alias
// dst.tuples.
func (p *Partitioner) scatter(dst *partBuf, g []int32, col []int32) {
	p.epoch++
	seen := p.seen[:0]
	for _, t := range g {
		c := col[t]
		if p.slotEpoch[c] != p.epoch {
			p.slotEpoch[c] = p.epoch
			p.slotCnt[c] = 0
			seen = append(seen, c)
		}
		p.slotCnt[c]++
	}
	p.seen = seen
	base := int32(len(dst.tuples))
	dst.tuples = append(dst.tuples, g...)
	if len(seen) == 1 {
		dst.offsets = append(dst.offsets, base+int32(len(g)))
		return
	}
	for _, c := range seen {
		p.slotPos[c] = base
		base += p.slotCnt[c]
		dst.offsets = append(dst.offsets, base)
	}
	for _, t := range g {
		c := col[t]
		dst.tuples[p.slotPos[c]] = t
		p.slotPos[c]++
	}
}

// NewDicts returns a fresh slice of per-attribute dictionaries for a schema
// of the given width, for sharing across the ProjCoders of one index.
func NewDicts(width int) []*Dict {
	dicts := make([]*Dict, width)
	for a := range dicts {
		dicts[a] = &Dict{}
	}
	return dicts
}

// ProjCoder interns the projection of standalone tuples on a fixed
// attribute set X to a single int32: two tuples receive the same code iff
// they agree (cell-wise Equal) on every attribute of X. It replaces the
// string keys of the repair clean indexes. Coding folds per-attribute value
// codes through a pair-interning table, so a code computation is |X| map
// probes of comparable keys — no string building, no allocation.
//
// Final codes are only meaningful relative to the coder that produced them
// (and only for full-length projections; prefix path codes share the same
// space internally).
type ProjCoder struct {
	attrs []int
	dicts []*Dict // indexed by attribute position; may be shared
	paths map[[2]int32]int32
}

// NewProjCoder returns a coder for X. dicts, when non-nil, supplies shared
// per-attribute dictionaries (indexed by attribute position, covering at
// least X.Max()+1 entries); a nil dicts gives the coder private ones.
func NewProjCoder(X AttrSet, dicts []*Dict) *ProjCoder {
	if dicts == nil {
		dicts = NewDicts(X.Max() + 1)
	}
	return &ProjCoder{
		attrs: X.Attrs(),
		dicts: dicts,
		paths: make(map[[2]int32]int32),
	}
}

// Code returns the projection code of t on the coder's attribute set,
// interning any unseen values or paths. All tuples code to 0 under an
// empty attribute set.
func (c *ProjCoder) Code(t Tuple) int32 {
	k := int32(-1)
	for _, a := range c.attrs {
		vc := c.dicts[a].Code(t[a])
		pk := [2]int32{k, vc}
		nk, ok := c.paths[pk]
		if !ok {
			nk = int32(len(c.paths))
			c.paths[pk] = nk
		}
		k = nk
	}
	if k < 0 {
		return 0
	}
	return k
}

// Lookup returns the projection code of t without interning. ok is false
// when some cell or path has never been coded — in which case no previously
// coded tuple agrees with t on the attribute set.
func (c *ProjCoder) Lookup(t Tuple) (int32, bool) {
	k := int32(-1)
	for _, a := range c.attrs {
		vc, ok := c.dicts[a].Lookup(t[a])
		if !ok {
			return 0, false
		}
		k, ok = c.paths[[2]int32{k, vc}]
		if !ok {
			return 0, false
		}
	}
	if k < 0 {
		return 0, true
	}
	return k, true
}
