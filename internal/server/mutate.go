package server

// PATCH /v1/datasets/{name}/rows: the live mutation endpoint. A batch of
// row operations is applied atomically as one new generation — any
// invalid op rejects the whole batch and nothing changes. With a store
// attached the batch writes through before it commits (generation sidecar
// first, then the snapshot — see store.SaveGeneration for the ordering
// rationale), so a storage failure aborts the batch and a restart never
// serves pre-mutation rows under a post-mutation generation. Sweeps
// running mid-batch keep streaming their pinned snapshot; the next sweep
// sees the new rows.

import (
	"errors"
	"fmt"
	"net/http"

	"relatrust"
)

// mutateOp is one wire row operation. Values addresses cells by attribute
// name; insert and update must provide every attribute of the schema.
type mutateOp struct {
	// Op is "insert", "update", or "delete".
	Op string `json:"op"`
	// Row is the target row (update/delete). Indices address the instance
	// as left by the preceding ops of the batch: inserts append, deletes
	// swap-remove (the last row takes the deleted row's index).
	Row *int `json:"row,omitempty"`
	// Values is the full tuple (insert/update), keyed by attribute name.
	Values map[string]string `json:"values,omitempty"`
}

// mutateRequest is the body of PATCH /v1/datasets/{name}/rows.
type mutateRequest struct {
	Ops []mutateOp `json:"ops"`
}

// mutateMove reports one swap-remove renumbering.
type mutateMove struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// mutateResponse reports what the committed batch did.
type mutateResponse struct {
	Generation        int64        `json:"generation"`
	Applied           int          `json:"applied"`
	Rows              int          `json:"rows"`
	ComponentsDirtied int          `json:"components_dirtied"`
	Moves             []mutateMove `json:"moves,omitempty"`
}

// decodeRowOps translates the wire batch into facade ops against the
// schema. Shape errors (unknown op, missing row or values, unknown or
// missing attribute) are reported with the op's index; range errors are
// left to the live tier's own validation.
func decodeRowOps(schema *relatrust.Schema, ops []mutateOp) ([]relatrust.RowOp, error) {
	out := make([]relatrust.RowOp, 0, len(ops))
	tupleOf := func(i int, values map[string]string) (relatrust.Tuple, error) {
		if len(values) != schema.Width() {
			return nil, fmt.Errorf("op %d: values must name all %d attributes (got %d)", i, schema.Width(), len(values))
		}
		t := make(relatrust.Tuple, schema.Width())
		for name, v := range values {
			a := schema.Index(name)
			if a < 0 {
				return nil, fmt.Errorf("op %d: unknown attribute %q", i, name)
			}
			t[a] = relatrust.Const(v)
		}
		return t, nil
	}
	for i, op := range ops {
		switch op.Op {
		case "insert":
			t, err := tupleOf(i, op.Values)
			if err != nil {
				return nil, err
			}
			out = append(out, relatrust.RowOp{Kind: relatrust.RowInsert, Tuple: t})
		case "update":
			if op.Row == nil {
				return nil, fmt.Errorf("op %d: update needs a row", i)
			}
			t, err := tupleOf(i, op.Values)
			if err != nil {
				return nil, err
			}
			out = append(out, relatrust.RowOp{Kind: relatrust.RowUpdate, Row: *op.Row, Tuple: t})
		case "delete":
			if op.Row == nil {
				return nil, fmt.Errorf("op %d: delete needs a row", i)
			}
			out = append(out, relatrust.RowOp{Kind: relatrust.RowDelete, Row: *op.Row})
		default:
			return nil, fmt.Errorf("op %d: unknown op %q (insert, update, or delete)", i, op.Op)
		}
	}
	return out, nil
}

func (s *Server) handleMutateRows(w http.ResponseWriter, r *http.Request) {
	d, err := s.find(r.PathValue("name"))
	if err != nil {
		writeError(w, err, nil)
		return
	}
	req, err := decodeStrict[mutateRequest](http.MaxBytesReader(w, r.Body, s.opt.MaxUploadBytes))
	if err != nil {
		writeErrorCode(w, http.StatusBadRequest, codeBadRequest, "decoding mutation request: %v", err)
		return
	}
	if len(req.Ops) == 0 {
		writeErrorCode(w, http.StatusBadRequest, codeBadRequest, "mutation batch has no ops")
		return
	}
	ops, err := decodeRowOps(d.live.Rows().Schema, req.Ops)
	if err != nil {
		writeErrorCode(w, http.StatusBadRequest, codeInvalidOps, "%v", err)
		return
	}

	// Serialize batches per dataset: the write-through below persists the
	// post-batch generation, which is only known if no other batch can
	// commit between our generation read and our commit.
	d.mutMu.Lock()
	defer d.mutMu.Unlock()
	var precommit func(*relatrust.Instance) error
	if s.opt.Store != nil {
		next := d.live.Generation() + 1
		precommit = func(in *relatrust.Instance) error {
			if err := s.opt.Store.SaveGeneration(d.name, next); err != nil {
				return err
			}
			return s.opt.Store.Save(d.name, in)
		}
	}
	res, err := d.live.Apply(ops, precommit)
	switch {
	case errors.Is(err, relatrust.ErrInvalidRowOp):
		writeErrorCode(w, http.StatusBadRequest, codeInvalidOps, "%v", err)
		return
	case err != nil:
		// The only other failure is the write-through; nothing committed.
		writeErrorCode(w, http.StatusInternalServerError, codeStorage,
			"persisting mutated dataset %q: %v", d.name, err)
		return
	}
	resp := mutateResponse{
		Generation:        res.Generation,
		Applied:           res.Applied,
		Rows:              res.NewRows,
		ComponentsDirtied: res.ComponentsDirtied,
	}
	for _, m := range res.Moves {
		resp.Moves = append(resp.Moves, mutateMove{From: m.From, To: m.To})
	}
	writeJSON(w, http.StatusOK, resp)
}
