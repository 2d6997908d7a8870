package relatrust

// LiveDataset: the facade over the live mutation tier (internal/live). A
// dataset that must keep serving repairs while its rows change wraps its
// instance in a LiveDataset; row batches are applied through Apply, and
// every Snapshot hands out an immutable (instance, session, generation)
// triple that Repairers — and in-flight frontier sweeps — can keep using
// for as long as they like while later mutations commit new generations
// behind them.

import (
	"relatrust/internal/live"
	"relatrust/internal/relation"
)

// ErrInvalidRowOp marks a mutation batch rejected by validation (row out
// of range, wrong tuple width, unknown kind); match with errors.Is. A
// rejected batch changes nothing.
var ErrInvalidRowOp = live.ErrBadOp

// RowOpKind selects what a RowOp does.
type RowOpKind int

const (
	// RowInsert appends Tuple as a new row.
	RowInsert RowOpKind = iota
	// RowUpdate replaces row Row with Tuple.
	RowUpdate
	// RowDelete removes row Row; the last row takes its index (see
	// MutationResult.Moves).
	RowDelete
)

// RowOp is one row mutation. Row indices address the instance as left by
// the preceding ops of the same batch: inserts append, deletes
// swap-remove.
type RowOp struct {
	Kind  RowOpKind
	Row   int   // update/delete target
	Tuple Tuple // insert/update payload (full row)
}

// RowMove reports one swap-remove renumbering: the row previously at From
// now lives at To.
type RowMove struct {
	From, To int
}

// MutationResult reports what an applied batch did.
type MutationResult struct {
	// Generation is the dataset's generation after the batch (unchanged
	// when every op was a no-op).
	Generation int64
	// Applied counts the ops that changed the instance (no-op updates are
	// dropped).
	Applied int
	// Moves lists the swap-remove renumberings, in application order.
	Moves []RowMove
	// ComponentsDirtied is how many conflict-hypergraph components lost
	// their memoized cover state to this batch.
	ComponentsDirtied int
	// NewRows is the instance's row count after the batch.
	NewRows int
}

// LiveStats is a live dataset's lifetime mutation effort: row operations
// applied, and conflict components whose memoized cover state a batch
// invalidated.
type LiveStats = live.Stats

// LiveDataset is the mutable handle over one dataset: it owns the current
// (instance, generation) pair and keeps the repair machinery — conflict
// clusters, hypergraph components, memoized cover state — incrementally
// maintained across mutations, so a batch costs work proportional to what
// it touches instead of a full re-analysis.
//
// Generations are immutable. Snapshot returns the current triple; a
// Repairer built over it (pass the snapshot's Session via
// Options.Session) answers for exactly that generation, bit-identically
// to a Repairer built from scratch over the same rows, no matter how many
// batches commit while it sweeps. The instance handed to NewLiveDataset
// must not be mutated directly afterwards — all writes go through Apply.
//
// LiveDataset is safe for concurrent use: Apply serializes, Snapshot is
// cheap.
type LiveDataset struct {
	t *live.Table
}

// NewLiveDataset wraps the instance as a live dataset at generation 0.
func NewLiveDataset(in *Instance) *LiveDataset {
	return NewLiveDatasetAt(in, 0)
}

// NewLiveDatasetAt wraps the instance at a caller-chosen generation — the
// rehydration path of serving layers that persist the generation across
// restarts.
func NewLiveDatasetAt(in *Instance, generation int64) *LiveDataset {
	return &LiveDataset{t: live.NewTable(in, generation)}
}

// Apply commits a batch of row mutations as one new generation. The batch
// is atomic: any invalid op rejects the whole batch with ErrInvalidRowOp
// and nothing changes. An all-no-op batch commits nothing and keeps the
// current generation.
//
// precommit, when non-nil, runs after the new instance is built but
// before anything is published: serving layers persist the snapshot
// there, so a storage failure aborts the batch — the error is returned
// and the dataset stays on its old generation.
func (d *LiveDataset) Apply(ops []RowOp, precommit func(*Instance) error) (*MutationResult, error) {
	lops := make([]live.Op, len(ops))
	for i, op := range ops {
		lops[i] = live.Op{Kind: live.OpKind(op.Kind), Row: op.Row, Tuple: op.Tuple}
	}
	res, err := d.t.Apply(lops, precommit)
	if err != nil {
		return nil, err
	}
	out := &MutationResult{
		Generation:        res.Generation,
		Applied:           res.Applied,
		ComponentsDirtied: res.ComponentsDirtied,
		NewRows:           res.NewN,
	}
	for _, m := range res.Moves {
		out.Moves = append(out.Moves, RowMove{From: int(m.From), To: int(m.To)})
	}
	return out, nil
}

// Snapshot returns the current generation's (instance, session,
// generation) triple. The triple is immutable: build Repairers over the
// instance with Options{Session: s} and they answer for this generation —
// including ProgressEvent.Generation stamps — even after later Apply
// calls move the dataset on.
func (d *LiveDataset) Snapshot() (*Instance, *Session, int64) {
	in, eng, gen := d.t.Snapshot()
	return in, &Session{eng: eng}, gen
}

// Generation returns the current mutation generation.
func (d *LiveDataset) Generation() int64 { return d.t.Generation() }

// Rows returns the current generation's instance (shorthand for Snapshot
// when only the data is needed). Read-only, like every snapshot.
func (d *LiveDataset) Rows() *relation.Instance {
	in, _, _ := d.t.Snapshot()
	return in
}

// Stats returns the dataset's lifetime mutation counters.
func (d *LiveDataset) Stats() LiveStats { return d.t.Stats() }

// Evict drops the dataset's warm incremental state (group indexes, shared
// dictionaries, cached analyses) without touching the data or the
// generation — the memory-pressure hook for serving layers. The next
// Apply or repair call rebuilds what it needs.
func (d *LiveDataset) Evict() { d.t.Evict() }
