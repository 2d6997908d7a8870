package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"relatrust"
	"relatrust/internal/fd"
	"relatrust/internal/gen"
	"relatrust/internal/live"
	"relatrust/internal/relation"
	"relatrust/internal/report"
)

// kind is the traffic shape a workload drives.
type kind int

const (
	// kindFrontier: one closed-loop client streaming POST /v1/repair.
	kindFrontier kind = iota
	// kindLive: open-loop PATCH batches beside one closed-loop sweeper.
	kindLive
	// kindDiscover: one closed-loop client streaming POST /v1/discover.
	kindDiscover
)

// datasetName is the name every workload registers its CSV under.
const datasetName = "bench"

// Fixed parts of the census-like workload. Like the paper's single
// Census-Income table, the clean relation and the weakened Σ belong to the
// workload's definition; the seed draws the injected cell errors. Drawing
// the clean relation from the seed too moves the search between 10 and 60
// states, which no run length can average away.
const (
	censusCleanSeed = 42
	censusFDSeed    = 44
)

// workload is one benchmark workload: how to build its inputs from a seed
// and how to drive them.
type workload struct {
	name string
	kind kind
	// n is the row count of a full-size run.
	n int
	// rate is the open-loop PATCH rate per second (kindLive only).
	rate float64
	// build generates the dataset and the read request for n rows.
	build func(seed int64, n int) (*inputs, error)
}

var workloads = []*workload{
	{name: "census-frontier", kind: kindFrontier, n: 3000, build: buildCensusFrontier},
	{name: "blocked-frontier", kind: kindFrontier, n: 15000, build: buildBlockedFrontier},
	{name: "live-mixed", kind: kindLive, n: 15000, rate: 10, build: buildBlockedFrontier},
	{name: "census-discover", kind: kindDiscover, n: 25000, build: buildCensusDiscover},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything a run sends, generated before any clock starts. The
// server only ever receives register, read and the batch bodies.
type inputs struct {
	// in is the CSV decoded exactly as the server decodes it; the
	// in-process oracles and the replay run over it.
	in  *relation.Instance
	csv []byte
	// register is the POST /v1/datasets body carrying csv.
	register []byte
	// sigma is Σ (frontier and live workloads); fds is its ParseFDs text.
	sigma fd.Set
	fds   string
	// lo and hi are the τ range of every frontier request; hi < 0 leaves
	// the upper end to the server (δP, the full spectrum).
	lo, hi int
	// readPath and read are the read request every client repeats.
	readPath string
	read     []byte
	// want is the oracle's answer to read over the registered rows:
	// frontier rows, or the discovered Σ as the sigma frame renders it.
	wantRows  []report.Row
	wantSigma sigmaFrame
	// batches are the live workload's PATCH batches in commit order.
	batches []batch
}

// batch is one PATCH of the live workload.
type batch struct {
	ops  []live.Op
	body []byte
	// rows is the mirror's row count once the batch committed.
	rows int
}

// Wire shapes the harness writes or decodes; field names follow the server's
// JSON contract.
type (
	registerRequest struct {
		Name string `json:"name"`
		CSV  string `json:"csv"`
	}
	repairRequest struct {
		Dataset string `json:"dataset"`
		FDs     string `json:"fds"`
		TauLow  int    `json:"tau_low,omitempty"`
		TauHigh *int   `json:"tau_high,omitempty"`
	}
	discoverRequest struct {
		Dataset  string  `json:"dataset"`
		MaxLHS   int     `json:"max_lhs"`
		MaxError float64 `json:"max_error"`
	}
	mutateOp struct {
		Op     string            `json:"op"`
		Row    *int              `json:"row,omitempty"`
		Values map[string]string `json:"values,omitempty"`
	}
	mutateRequest struct {
		Ops []mutateOp `json:"ops"`
	}
	mutateResponse struct {
		Generation int64 `json:"generation"`
		Rows       int   `json:"rows"`
	}
	// discoverFrame and sigmaFrame are the NDJSON frames of
	// POST /v1/discover.
	discoverFrame struct {
		N     int     `json:"n"`
		FD    string  `json:"fd"`
		Level int     `json:"level"`
		Error float64 `json:"error,omitempty"`
	}
	sigmaFrame struct {
		Sigma string `json:"sigma"`
		FDs   int    `json:"fds"`
	}
)

// Discovery knobs of the census-discover requests.
const (
	discoverMaxLHS   = 3
	discoverMaxError = 0.01
)

func buildCensusFrontier(seed int64, n int) (*inputs, error) {
	spec := gen.SubSpec(gen.CensusSpec(), 12)
	sigma := gen.TwoFDs(spec)
	clean, err := gen.Generate(spec, sigma, n, censusCleanSeed)
	if err != nil {
		return nil, err
	}
	dirty, err := gen.PerturbData(clean, sigma, 0.01, seed)
	if err != nil {
		return nil, err
	}
	weak, err := gen.PerturbFDs(sigma, 0.34, censusFDSeed)
	if err != nil {
		return nil, err
	}
	return frontierInputs(dirty.Instance, weak.Sigma, true)
}

func buildBlockedFrontier(seed int64, n int) (*inputs, error) {
	in, sigma, err := blockedInstance(seed, n)
	if err != nil {
		return nil, err
	}
	return frontierInputs(in, sigma, false)
}

// blockedInstance is the shape of the repository's blocked benchmarks:
// Blk,A → B violated only inside 4-row blocks, so the conflict hypergraph
// splits into thousands of small components.
func blockedInstance(seed int64, n int) (*relation.Instance, fd.Set, error) {
	rng := rand.New(rand.NewSource(seed))
	in := relation.NewInstance(relation.MustSchema("Blk", "A", "B", "C", "D", "E", "F"))
	v := func(k int) string { return fmt.Sprintf("v%d", rng.Intn(k)) }
	for t := 0; t < n; t++ {
		if err := in.AppendConsts(fmt.Sprintf("b%d", t/4), v(2), v(2), v(3), v(3), v(3), v(3)); err != nil {
			return nil, nil, err
		}
	}
	return in, fd.Set{fd.MustNew(relation.NewAttrSet(0, 1), 2)}, nil
}

// frontierInputs uploads in and asks for Σ's frontier: τ ∈ [⌊δP/3⌋, δP]
// when third is set, the full spectrum otherwise.
func frontierInputs(src *relation.Instance, sigma fd.Set, third bool) (*inputs, error) {
	x, err := withCSV(src)
	if err != nil {
		return nil, err
	}
	x.sigma, x.fds = sigma, sigma.Format(x.in.Schema)
	rp, err := relatrust.NewRepairer(x.in, sigma, relatrust.Options{})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	req := repairRequest{Dataset: datasetName, FDs: x.fds}
	x.hi = -1
	if third {
		dp, err := rp.MaxBudget(ctx)
		if err != nil {
			return nil, err
		}
		x.lo, x.hi = dp/3, dp
		req.TauLow, req.TauHigh = x.lo, &x.hi
	}
	if x.wantRows, err = frontierRows(ctx, rp, x.lo, x.hi); err != nil {
		return nil, err
	}
	x.readPath = "/v1/repair"
	x.read, err = json.Marshal(req)
	return x, err
}

// liveBatches generates count PATCH batches against the registered rows,
// each of 16 ops as in BenchmarkLiveUpdates: 12 updates rewriting B and D of
// random rows, 2 inserts cloning a random row with a new B, and 2
// swap-remove deletes. Row indices stay below n−16 so every index is valid
// under the batch's own renumbering.
func liveBatches(x *inputs, seed int64, count int) error {
	rng := rand.New(rand.NewSource(seed + 1))
	schema := x.in.Schema
	rows := mirrorOf(x.in)
	val := func() relation.Value { return relation.Const(fmt.Sprintf("v%d", rng.Intn(3))) }
	x.batches = make([]batch, 0, count)
	for b := 0; b < count; b++ {
		n := len(rows)
		pick := func() int { return rng.Intn(n - 16) }
		ops := make([]live.Op, 0, 16)
		for i := 0; i < 12; i++ {
			r := pick()
			t := rows[r].Clone()
			t[2], t[4] = val(), val()
			ops = append(ops, live.Op{Kind: live.OpUpdate, Row: r, Tuple: t})
		}
		for i := 0; i < 2; i++ {
			t := rows[pick()].Clone()
			t[2] = val()
			ops = append(ops, live.Op{Kind: live.OpInsert, Tuple: t})
		}
		for i := 0; i < 2; i++ {
			ops = append(ops, live.Op{Kind: live.OpDelete, Row: pick()})
		}
		rows = applyOps(rows, ops)
		body, err := json.Marshal(mutateRequest{Ops: wireOps(schema, ops)})
		if err != nil {
			return err
		}
		x.batches = append(x.batches, batch{ops: ops, body: body, rows: len(rows)})
	}
	return nil
}

// mirrorOf copies the rows of in; the harness mutates its mirror with the
// server's swap-remove semantics.
func mirrorOf(in *relation.Instance) []relation.Tuple {
	return append([]relation.Tuple(nil), in.Tuples...)
}

// applyOps applies one batch to a mirror: inserts append, updates replace,
// deletes move the last row into the deleted row's index.
func applyOps(rows []relation.Tuple, ops []live.Op) []relation.Tuple {
	for _, op := range ops {
		switch op.Kind {
		case live.OpInsert:
			rows = append(rows, op.Tuple)
		case live.OpUpdate:
			rows[op.Row] = op.Tuple
		case live.OpDelete:
			last := len(rows) - 1
			rows[op.Row] = rows[last]
			rows = rows[:last]
		}
	}
	return rows
}

func wireOps(schema *relation.Schema, ops []live.Op) []mutateOp {
	values := func(t relation.Tuple) map[string]string {
		m := make(map[string]string, len(t))
		for a, v := range t {
			m[schema.Name(a)] = v.Str()
		}
		return m
	}
	out := make([]mutateOp, len(ops))
	for i, op := range ops {
		row := op.Row
		switch op.Kind {
		case live.OpInsert:
			out[i] = mutateOp{Op: "insert", Values: values(op.Tuple)}
		case live.OpUpdate:
			out[i] = mutateOp{Op: "update", Row: &row, Values: values(op.Tuple)}
		case live.OpDelete:
			out[i] = mutateOp{Op: "delete", Row: &row}
		}
	}
	return out
}

func buildCensusDiscover(seed int64, n int) (*inputs, error) {
	spec := gen.SubSpec(gen.CensusSpec(), 16)
	clean, err := gen.Generate(spec, gen.TwoFDs(spec), n, seed)
	if err != nil {
		return nil, err
	}
	x, err := withCSV(clean)
	if err != nil {
		return nil, err
	}
	dv, err := relatrust.NewDiscoverer(x.in, relatrust.DiscoverOptions{MaxLHS: discoverMaxLHS, MaxError: discoverMaxError})
	if err != nil {
		return nil, err
	}
	found, err := dv.Discover(context.Background())
	if err != nil {
		return nil, err
	}
	x.wantSigma = sigmaFrame{Sigma: relatrust.Sigma(found).Format(x.in.Schema), FDs: len(found)}
	x.readPath = "/v1/discover"
	x.read, err = json.Marshal(discoverRequest{Dataset: datasetName, MaxLHS: discoverMaxLHS, MaxError: discoverMaxError})
	return x, err
}

// withCSV renders the generated instance as the CSV the server receives and
// decodes it back, so every oracle runs over exactly the server's rows.
func withCSV(src *relation.Instance) (*inputs, error) {
	var buf bytes.Buffer
	if err := relation.WriteCSV(&buf, src); err != nil {
		return nil, err
	}
	in, err := relation.ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	reg, err := json.Marshal(registerRequest{Name: datasetName, CSV: buf.String()})
	if err != nil {
		return nil, err
	}
	return &inputs{in: in, csv: buf.Bytes(), register: reg}, nil
}

// frontierRows is the in-process oracle: the frontier over [lo, hi] (hi < 0:
// the full spectrum) rendered as the wire rows the server streams.
func frontierRows(ctx context.Context, rp *relatrust.Repairer, lo, hi int) ([]report.Row, error) {
	var rows []report.Row
	for rep, err := range rp.FrontierRange(ctx, lo, hi) {
		if err != nil {
			return nil, err
		}
		rows = append(rows, report.RowOf(rp.Instance(), len(rows)+1, rep))
	}
	return rows, nil
}
