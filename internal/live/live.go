// Package live is the mutation tier: it keeps the conflict hypergraph,
// its cluster arenas, and the component decomposition of a served dataset
// incrementally maintainable under tuple insert/update/delete, so a
// mutation batch costs work proportional to what it touches instead of a
// full re-analysis.
//
// # Model
//
// A Table owns the current (instance, generation, session engine) triple
// of one dataset. Every published generation is immutable: Apply builds a
// NEW instance (sharing unchanged row and code-column memory with its
// predecessor), splices the per-FD violation clusters it maintains as
// live LHS-equivalence groups, derives the next component evaluator from
// the previous one (components.SpliceEvaluator — only dirtied components
// lose their memoized cover state), seeds a NEW session engine with the
// spliced roots, and atomically swaps the triple. Snapshot hands out the
// current triple; an in-flight sweep keeps using the engine it acquired —
// including mid-sweep re-acquires during materialization — and therefore
// finishes against a consistent snapshot, while the next sweep sees the
// new generation. Snapshot isolation is structural, not scheduled.
//
// # Group maintenance
//
// Per engine root (FD set) the table keeps, per FD, a map from the LHS
// projection, packed as the value codes of the table-shared dictionaries,
// to the group of rows carrying that projection, with a per-group
// multiset of RHS codes. A group is a violation cluster iff it has ≥2
// members and ≥2 distinct RHS codes. The cluster list of every FD is kept
// in the canonical order conflict.NewFiltered produces — ascending by
// leading member — which makes the spliced analysis bit-identical to a
// rebuild from scratch (conflict.NewFromClusters), including the
// order-sensitive capped samplers. Deletes renumber by swap-remove (the last row takes
// the deleted row's index), and the renumbering is applied to the moved
// row's groups as part of the batch; Result.Moves reports it to callers.
//
// Group member slices are aliased by published analyses, so the first
// touch of a group in a batch copies its member slice (copy-on-write at
// group granularity); older generations keep reading their snapshots.
//
// # Durability hook
//
// Apply takes a precommit callback between building the new instance and
// committing it: the serving layer persists the snapshot (and the
// dataset's generation sidecar) there, so an I/O failure aborts the batch
// with the table — and every sweep — still on the old generation.
package live

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"relatrust/internal/components"
	"relatrust/internal/conflict"
	"relatrust/internal/fd"
	"relatrust/internal/relation"
	"relatrust/internal/session"
)

// ErrBadOp marks a mutation batch rejected by validation (row out of
// range, wrong tuple width, unknown op kind); match with errors.Is. A
// rejected batch changes nothing.
var ErrBadOp = errors.New("live: invalid mutation op")

// OpKind selects what a mutation op does.
type OpKind int

const (
	// OpInsert appends Tuple as a new row.
	OpInsert OpKind = iota
	// OpUpdate replaces row Row with Tuple.
	OpUpdate
	// OpDelete removes row Row; the last row takes its index (swap-remove).
	OpDelete
)

// Op is one mutation. Row indices address the instance as left by the
// preceding ops of the same batch (inserts append, deletes swap-remove).
type Op struct {
	Kind  OpKind
	Row   int            // update/delete target
	Tuple relation.Tuple // insert/update payload
}

// Move is one swap-remove renumbering: the row previously at From now
// lives at To.
type Move struct {
	From, To int32
}

// Result reports what a batch did.
type Result struct {
	// Generation is the table's generation after the batch (unchanged when
	// every op was a no-op).
	Generation int64
	// Applied counts the ops that actually changed the instance (no-op
	// updates are dropped).
	Applied int
	// Moves lists the swap-remove renumberings, in application order.
	Moves []Move
	// ComponentsDirtied is how many conflict-hypergraph components lost
	// their memoized cover state to this batch (the maximum across the
	// maintained roots; 0 when no root had a decomposition yet).
	ComponentsDirtied int
	// NewN is the instance's row count after the batch.
	NewN int
}

// Stats is a table's lifetime mutation effort, for /statz and /metrics.
type Stats struct {
	MutationsApplied  int64
	ComponentsDirtied int64
}

// Table is the live mutation state of one dataset. Safe for concurrent
// use; Apply serializes, Snapshot is cheap.
type Table struct {
	mu  sync.Mutex
	in  *relation.Instance
	eng *session.Engine
	gen int64

	// dicts are the table's grow-only per-attribute dictionaries; cols the
	// current generation's code columns under them. Built lazily on first
	// Apply and dropped by Evict. Columns of attributes a batch does not
	// touch are aliased, not copied, into the next generation.
	dicts []*relation.Dict
	cols  [][]int32

	// sigmas holds one group state per engine root FD set, cold-built from
	// the current instance when a root first appears.
	sigmas []*sigmaState

	stats Stats
}

// NewTable returns a table serving the instance at the given generation.
func NewTable(in *relation.Instance, generation int64) *Table {
	return &Table{in: in, eng: session.NewAt(in, generation), gen: generation}
}

// Snapshot returns the current (instance, engine, generation) triple. The
// triple is internally consistent and immutable: a later Apply swaps in a
// new one but never touches this one, so callers may sweep against it for
// as long as they like.
func (t *Table) Snapshot() (*relation.Instance, *session.Engine, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.in, t.eng, t.gen
}

// Generation returns the current mutation generation.
func (t *Table) Generation() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.gen
}

// Stats returns the lifetime mutation counters.
func (t *Table) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Evict drops the table's warm incremental state — group maps, shared
// dictionaries, code columns — and rebinds a fresh engine to the current
// instance, for memory-pressure eviction (the serving layer's warm-session
// LRU). The instance and generation are untouched; the next Apply
// cold-rebuilds what it needs.
func (t *Table) Evict() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.eng = session.NewAt(t.in, t.gen)
	t.sigmas = nil
	t.dicts = nil
	t.cols = nil
}

// normOp is one validated, normalized mutation with the row contents the
// commit replay needs (rows are immutable once published, so these are
// snapshots by construction).
type normOp struct {
	kind      OpKind
	row       int32
	oldTuple  relation.Tuple // update/delete: the row being replaced/removed
	newTuple  relation.Tuple // insert/update: the row being written
	moved     relation.Tuple // delete: content of the renumbered row, nil if none
	movedFrom int32          // delete: the renumbered row's previous index
}

// Apply runs a mutation batch in three phases: (1) build the next
// instance and its code columns without touching any published state; (2)
// run precommit (nil to skip) against the new instance — an error aborts
// the batch with nothing changed; (3) commit: splice the cluster lists
// and component evaluators of every engine root and swap in the next
// (instance, engine, generation) triple.
func (t *Table) Apply(ops []Op, precommit func(*relation.Instance) error) (*Result, error) {
	t.mu.Lock()
	defer t.mu.Unlock()

	width := t.in.Schema.Width()
	oldN := t.in.N()

	// ---- Phase 1: pure. Validate and normalize the ops against a private
	// copy of the row-pointer slice; nothing published is written.
	tuples := append(make([]relation.Tuple, 0, oldN+len(ops)), t.in.Tuples...)
	oldPos := make([]int32, oldN) // evolving current→old position map
	for i := range oldPos {
		oldPos[i] = int32(i)
	}
	var log []normOp
	var moves []Move
	var touched relation.AttrSet
	lengthChanged := false
	for i, op := range ops {
		switch op.Kind {
		case OpInsert:
			if len(op.Tuple) != width {
				return nil, fmt.Errorf("%w: op %d: tuple width %d does not match schema width %d", ErrBadOp, i, len(op.Tuple), width)
			}
			nt := op.Tuple.Clone()
			tuples = append(tuples, nt)
			oldPos = append(oldPos, -1)
			log = append(log, normOp{kind: OpInsert, row: int32(len(tuples) - 1), newTuple: nt})
			lengthChanged = true
		case OpUpdate:
			if op.Row < 0 || op.Row >= len(tuples) {
				return nil, fmt.Errorf("%w: op %d: row %d outside [0, %d)", ErrBadOp, i, op.Row, len(tuples))
			}
			if len(op.Tuple) != width {
				return nil, fmt.Errorf("%w: op %d: tuple width %d does not match schema width %d", ErrBadOp, i, len(op.Tuple), width)
			}
			old := tuples[op.Row]
			if old.Equal(op.Tuple) {
				continue // no-op update: drop it
			}
			nt := op.Tuple.Clone()
			for a := 0; a < width; a++ {
				if !old[a].Equal(nt[a]) {
					touched = touched.Add(a)
				}
			}
			tuples[op.Row] = nt
			log = append(log, normOp{kind: OpUpdate, row: int32(op.Row), oldTuple: old, newTuple: nt})
		case OpDelete:
			if op.Row < 0 || op.Row >= len(tuples) {
				return nil, fmt.Errorf("%w: op %d: row %d outside [0, %d)", ErrBadOp, i, op.Row, len(tuples))
			}
			last := len(tuples) - 1
			no := normOp{kind: OpDelete, row: int32(op.Row), oldTuple: tuples[op.Row]}
			if op.Row != last {
				no.moved = tuples[last]
				no.movedFrom = int32(last)
				moves = append(moves, Move{From: int32(last), To: int32(op.Row)})
				tuples[op.Row] = tuples[last]
				oldPos[op.Row] = oldPos[last]
			}
			tuples = tuples[:last]
			oldPos = oldPos[:last]
			log = append(log, no)
			lengthChanged = true
		default:
			return nil, fmt.Errorf("%w: op %d: unknown kind %d", ErrBadOp, i, op.Kind)
		}
	}
	if len(log) == 0 {
		return &Result{Generation: t.gen, NewN: oldN}, nil
	}

	t.ensureCols()
	newIn := &relation.Instance{Schema: t.in.Schema, Tuples: tuples}
	newCols := make([][]int32, width)
	for a := 0; a < width; a++ {
		if !lengthChanged && !touched.Contains(a) {
			newCols[a] = t.cols[a] // untouched column: alias, don't copy
			continue
		}
		col := append(make([]int32, 0, max(len(tuples), oldN)), t.cols[a]...)
		for _, op := range log {
			switch op.kind {
			case OpInsert:
				col = append(col, t.dicts[a].Code(op.newTuple[a]))
			case OpUpdate:
				col[op.row] = t.dicts[a].Code(op.newTuple[a])
			case OpDelete:
				last := len(col) - 1
				if op.moved != nil {
					col[op.row] = col[last]
				}
				col = col[:last]
			}
		}
		newCols[a] = col
	}
	for a := 0; a < width; a++ {
		newIn.SetCodes(a, newCols[a], int32(t.dicts[a].Len()))
	}

	// ---- Phase 2: durability hook. An error leaves the table — and every
	// published generation — exactly as it was.
	if precommit != nil {
		if err := precommit(newIn); err != nil {
			return nil, err
		}
	}

	// ---- Phase 3: commit. Splice the group state of every engine root
	// and publish the next generation.
	newGen := t.gen + 1
	roots := t.eng.ExportRoots()
	for _, r := range roots {
		t.stateFor(r.Sigma) // cold-build missing states over the pre-batch instance
	}
	for _, st := range t.sigmas {
		st.replay(log, t.dicts, newGen)
	}
	seeds := make([]session.Root, 0, len(roots))
	maxDirtied := 0
	for _, r := range roots {
		st := t.stateFor(r.Sigma)
		clusters, info := st.endBatch(newGen)
		info.OldPos = oldPos
		an := conflict.NewFromClusters(newIn, st.sigma, clusters)
		var ev *components.Evaluator
		if r.Evaluator != nil {
			var dirtied int
			ev, dirtied = components.SpliceEvaluator(r.Evaluator, an, info)
			if dirtied > maxDirtied {
				maxDirtied = dirtied
			}
		}
		seeds = append(seeds, session.Root{Sigma: st.sigma, Analysis: an, Evaluator: ev})
	}

	t.in = newIn
	t.cols = newCols
	t.gen = newGen
	t.eng = session.NewSeeded(newIn, newGen, seeds)
	t.stats.MutationsApplied += int64(len(log))
	t.stats.ComponentsDirtied += int64(maxDirtied)
	return &Result{
		Generation:        newGen,
		Applied:           len(log),
		Moves:             moves,
		ComponentsDirtied: maxDirtied,
		NewN:              len(tuples),
	}, nil
}

// ensureCols builds the shared dictionaries and the current generation's
// code columns on first use after construction or Evict.
func (t *Table) ensureCols() {
	if t.cols != nil {
		return
	}
	width := t.in.Schema.Width()
	t.dicts = relation.NewDicts(width)
	t.cols = make([][]int32, width)
	for a := 0; a < width; a++ {
		col := make([]int32, t.in.N())
		for i, tup := range t.in.Tuples {
			col[i] = t.dicts[a].Code(tup[a])
		}
		t.cols[a] = col
	}
}

// stateFor returns the group state of sigma, cold-building it from the
// current (pre-batch) instance on first request.
func (t *Table) stateFor(sigma fd.Set) *sigmaState {
	for _, st := range t.sigmas {
		if st.sigma.Equal(sigma) {
			return st
		}
	}
	st := newSigmaState(t.in, sigma, t.dicts)
	t.sigmas = append(t.sigmas, st)
	return st
}

// liveGroup is one LHS-equivalence group of one FD: its member rows
// (ascending) and the multiset of their RHS codes. idx is its position in
// the FD's cluster list when violating, -1 otherwise; stamp marks the
// last batch that touched it (first touch per batch copies members, since
// published analyses alias the slice).
type liveGroup struct {
	members []int32
	rhs     map[int32]int
	idx     int32
	stamp   int64
}

func (g *liveGroup) violating() bool {
	return len(g.members) >= 2 && len(g.rhs) >= 2
}

func (g *liveGroup) insertMember(row int32) {
	i := sort.Search(len(g.members), func(i int) bool { return g.members[i] >= row })
	g.members = append(g.members, 0)
	copy(g.members[i+1:], g.members[i:])
	g.members[i] = row
}

func (g *liveGroup) removeMember(row int32) {
	i := sort.Search(len(g.members), func(i int) bool { return g.members[i] >= row })
	g.members = append(g.members[:i], g.members[i+1:]...)
}

// fdGroups is the live group state of one FD of one root set.
type fdGroups struct {
	f   fd.FD
	lhs []int // f.LHS's attributes
	// groups maps the LHS projection, packed by keyOf, to the group
	// carrying it. Groups are kept (possibly empty) once created — a later
	// insert may refill them.
	groups   map[string]*liveGroup
	clusters []*liveGroup // violating groups, ascending by leading member
	key      []byte       // keyOf's scratch

	// per-batch scratch
	dirty        []*liveGroup
	oldDirtyReps []int32
}

// keyOf packs tup's LHS value codes into the scratch key, which the next
// call overwrites. The dictionaries give equal values equal codes, so two
// tuples get the same key iff they agree on every LHS attribute.
func (fg *fdGroups) keyOf(tup relation.Tuple, dicts []*relation.Dict) []byte {
	k := fg.key[:0]
	for _, a := range fg.lhs {
		k = binary.LittleEndian.AppendUint32(k, uint32(dicts[a].Code(tup[a])))
	}
	fg.key = k
	return k
}

// touch registers the group as dirtied by the current batch: on the first
// touch its member slice is copied (published analyses alias the old one)
// and, if it was a published cluster, a representative pre-batch member
// is recorded for the component splice. Any renumbering of a member
// touches the group, so at first-touch time the members are still exactly
// the pre-batch ids.
func (fg *fdGroups) touch(g *liveGroup, batch int64) {
	if g.stamp == batch {
		return
	}
	g.stamp = batch
	if g.idx >= 0 {
		fg.oldDirtyReps = append(fg.oldDirtyReps, g.members[0])
	}
	g.members = append([]int32(nil), g.members...)
	fg.dirty = append(fg.dirty, g)
}

// sigmaState is the live group state of one engine root (FD set).
type sigmaState struct {
	sigma fd.Set
	fds   []*fdGroups
}

// newSigmaState cold-builds the group state of sigma over the instance:
// one full partition pass per FD, the same grouping NewFiltered runs. Its
// violating-cluster lists equal — content and canonical order — the
// clusters of any analysis of (in, sigma), so a root analysis built
// before the state existed stays consistent with it.
func newSigmaState(in *relation.Instance, sigma fd.Set, dicts []*relation.Dict) *sigmaState {
	st := &sigmaState{sigma: sigma.Clone()}
	part := relation.NewPartitioner(in)
	for _, f := range sigma {
		fg := &fdGroups{
			f:      f,
			lhs:    f.LHS.Attrs(),
			groups: make(map[string]*liveGroup),
		}
		part.BeginAll()
		part.RefineSet(f.LHS)
		pt := part.Partition()
		for gi := 0; gi < pt.NumGroups(); gi++ {
			g := pt.Group(gi)
			lg := &liveGroup{
				members: append([]int32(nil), g...),
				rhs:     make(map[int32]int, 2),
				idx:     -1,
			}
			for _, row := range g {
				lg.rhs[dicts[f.RHS].Code(in.Tuples[row][f.RHS])]++
			}
			fg.groups[string(fg.keyOf(in.Tuples[g[0]], dicts))] = lg
			if lg.violating() {
				fg.clusters = append(fg.clusters, lg)
			}
		}
		sort.Slice(fg.clusters, func(i, j int) bool {
			return fg.clusters[i].members[0] < fg.clusters[j].members[0]
		})
		for i, lg := range fg.clusters {
			lg.idx = int32(i)
		}
		st.fds = append(st.fds, fg)
	}
	return st
}

// replay applies the batch's normalized ops to the group state.
func (st *sigmaState) replay(log []normOp, dicts []*relation.Dict, batch int64) {
	for _, op := range log {
		switch op.kind {
		case OpInsert:
			st.add(op.row, op.newTuple, dicts, batch)
		case OpUpdate:
			st.remove(op.row, op.oldTuple, dicts, batch)
			st.add(op.row, op.newTuple, dicts, batch)
		case OpDelete:
			st.remove(op.row, op.oldTuple, dicts, batch)
			if op.moved != nil {
				st.move(op.movedFrom, op.row, op.moved, dicts, batch)
			}
		}
	}
}

func (st *sigmaState) add(row int32, tup relation.Tuple, dicts []*relation.Dict, batch int64) {
	for _, fg := range st.fds {
		key := fg.keyOf(tup, dicts)
		g := fg.groups[string(key)]
		if g == nil {
			g = &liveGroup{idx: -1, rhs: make(map[int32]int, 2)}
			fg.groups[string(key)] = g
		}
		fg.touch(g, batch)
		g.insertMember(row)
		g.rhs[dicts[fg.f.RHS].Code(tup[fg.f.RHS])]++
	}
}

func (st *sigmaState) remove(row int32, tup relation.Tuple, dicts []*relation.Dict, batch int64) {
	for _, fg := range st.fds {
		g := fg.groups[string(fg.keyOf(tup, dicts))]
		fg.touch(g, batch)
		g.removeMember(row)
		rc := dicts[fg.f.RHS].Code(tup[fg.f.RHS])
		if g.rhs[rc]--; g.rhs[rc] == 0 {
			delete(g.rhs, rc)
		}
	}
}

// move renumbers one member (content tup) from index from to index to in
// every group containing it; the RHS multiset is unchanged.
func (st *sigmaState) move(from, to int32, tup relation.Tuple, dicts []*relation.Dict, batch int64) {
	for _, fg := range st.fds {
		g := fg.groups[string(fg.keyOf(tup, dicts))]
		fg.touch(g, batch)
		g.removeMember(from)
		g.insertMember(to)
	}
}

// endBatch rebuilds each FD's cluster list from its dirtied groups and
// returns the new cluster slices (for conflict.NewFromClusters) plus the
// splice description for components.SpliceEvaluator (OldPos is filled by
// the caller). Untouched clusters keep their relative order and are
// merged with the re-sorted dirty ones, preserving the canonical
// ascending-by-leading-member order.
func (st *sigmaState) endBatch(batch int64) ([][][]int32, components.SpliceInfo) {
	clusters := make([][][]int32, len(st.fds))
	var info components.SpliceInfo
	info.OldToNew = make([][]int32, len(st.fds))
	for fi, fg := range st.fds {
		old := fg.clusters
		o2n := make([]int32, len(old))
		if len(fg.dirty) == 0 {
			for i := range o2n {
				o2n[i] = int32(i)
			}
			info.OldToNew[fi] = o2n
			cl := make([][]int32, len(old))
			for i, g := range old {
				cl[i] = g.members
			}
			clusters[fi] = cl
			continue
		}
		info.OldDirtyTuples = append(info.OldDirtyTuples, fg.oldDirtyReps...)
		for i := range o2n {
			o2n[i] = -1
		}
		surv := make([]*liveGroup, 0, len(old))
		for _, g := range old {
			if g.stamp != batch {
				surv = append(surv, g)
			}
		}
		viol := make([]*liveGroup, 0, len(fg.dirty))
		for _, g := range fg.dirty {
			if g.violating() {
				viol = append(viol, g)
			} else {
				g.idx = -1
			}
		}
		sort.Slice(viol, func(i, j int) bool { return viol[i].members[0] < viol[j].members[0] })
		merged := make([]*liveGroup, 0, len(surv)+len(viol))
		si, vi := 0, 0
		for si < len(surv) || vi < len(viol) {
			if vi == len(viol) || (si < len(surv) && surv[si].members[0] < viol[vi].members[0]) {
				merged = append(merged, surv[si])
				si++
			} else {
				merged = append(merged, viol[vi])
				vi++
			}
		}
		cl := make([][]int32, len(merged))
		for pos, g := range merged {
			cl[pos] = g.members
			if g.stamp == batch {
				info.Dirty = append(info.Dirty, conflict.ClusterRef{FD: int32(fi), Cluster: int32(pos)})
			} else {
				o2n[g.idx] = int32(pos)
			}
		}
		for pos, g := range merged {
			g.idx = int32(pos)
		}
		info.OldToNew[fi] = o2n
		fg.clusters = merged
		fg.dirty = fg.dirty[:0]
		fg.oldDirtyReps = fg.oldDirtyReps[:0]
		clusters[fi] = cl
	}
	return clusters, info
}
