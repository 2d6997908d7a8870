package main

// The traced replay: the workload's request sequence replayed in-process,
// with the same traffic shape, by calling each layer's public
// functions in the order the server's handlers do. Spans are recorded
// around those calls from here — the program itself carries no spans — and
// each replayed answer must be byte-identical to the server's, which pins
// the replay to what the handlers really do.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"relatrust/internal/components"
	"relatrust/internal/conflict"
	"relatrust/internal/discovery"
	"relatrust/internal/fd"
	"relatrust/internal/live"
	"relatrust/internal/relation"
	"relatrust/internal/repair"
	"relatrust/internal/report"
	"relatrust/internal/search"
	"relatrust/internal/session"
	"relatrust/internal/store"
	"relatrust/internal/weights"
)

// replayer holds the in-process state a replay phase runs against: the
// dataset's live table (what the server registers), plus for the live
// workload a durable store in a fresh directory.
type replayer struct {
	r    *runner
	tr   *tracer
	tbl  *live.Table
	st   *store.Store
	dir  string
	reqs atomic.Int64
	// decode is how long relation.ReadCSV took on the uploaded CSV.
	decode time.Duration

	mu sync.Mutex
	c  layerCounts
}

// layerCounts are the per-layer work counts of one replay phase.
type layerCounts struct {
	sweeps, commits, discovers  int
	visited, generated, gcCalls int64
	weightCalls                 int64
	cover                       conflict.CoverStats
	// evals holds, per component evaluator a sweep used, its counters
	// when the phase first used it; the phase's component work is the
	// growth since. (Concurrent sweeps share an evaluator, so per-sweep
	// differences would count the same work twice.)
	evals                 map[*components.Evaluator]components.Counters
	cellsChanged          int64
	dirtied, bytesWritten int64
	candidates, fds       int64
	levels                map[int][]float64
	queue                 []float64
}

func newLayerCounts() layerCounts {
	return layerCounts{
		evals:  map[*components.Evaluator]components.Counters{},
		levels: map[int][]float64{},
	}
}

// componentWork is the component evaluators' work during the phase.
func (c *layerCounts) componentWork() components.Counters {
	var w components.Counters
	for dec, c0 := range c.evals {
		c1 := dec.Counters()
		w.Evals += c1.Evals - c0.Evals
		w.MemoHits += c1.MemoHits - c0.MemoHits
		w.Parallel += c1.Parallel - c0.Parallel
	}
	return w
}

// newReplayer decodes the uploaded CSV and registers it in-process, as
// POST /v1/datasets does; the live workload also opens a store in a fresh
// directory and writes the registration snapshot through.
func (r *runner) newReplayer(tr *tracer) (*replayer, error) {
	p := &replayer{r: r, tr: tr}
	t0 := time.Now()
	in, err := relation.ReadCSV(bytes.NewReader(r.x.csv))
	p.decode = time.Since(t0)
	if err != nil {
		return nil, err
	}
	p.tbl = live.NewTable(in, 0)
	if r.w.kind == kindLive {
		if p.dir, err = os.MkdirTemp(r.workDir, "replay-"); err != nil {
			return nil, err
		}
		if p.st, err = store.Open(p.dir, store.Options{}); err != nil {
			p.close()
			return nil, err
		}
		if err := p.st.Save(datasetName, in); err != nil {
			p.close()
			return nil, err
		}
	}
	p.c = newLayerCounts()
	return p, nil
}

func (p *replayer) close() {
	if p.dir != "" {
		os.RemoveAll(p.dir)
	}
}

// read replays one read request of the workload and returns its answer.
func (p *replayer) read(ctx context.Context, first *time.Time) ([]byte, error) {
	req := p.reqs.Add(1)
	if p.r.w.kind == kindDiscover {
		return p.discover(ctx, req, first)
	}
	return p.sweep(ctx, req, first)
}

// timedWeights wraps the weighting handed to the searcher, putting a span
// around every call that reaches it (the searcher memoizes above it, so
// these are the distinct attribute sets priced).
type timedWeights struct {
	w      weights.Func
	tr     *tracer
	req    int64
	parent atomic.Int64
	calls  atomic.Int64
}

func (t *timedWeights) Weight(y relation.AttrSet) float64 {
	t.calls.Add(1)
	s := t.tr.begin(t.req, t.parent.Load(), "weights")
	defer s.end()
	return t.w.Weight(y)
}

func (t *timedWeights) Name() string { return t.w.Name() }

// replaySession is repair.NewSession taken apart: acquire the analysis,
// fetch the shared component evaluator, build the searcher.
type replaySession struct {
	an  *conflict.Analysis
	dec *components.Evaluator
	s   *search.Searcher
	w   *timedWeights
}

func (p *replayer) openSession(req, parent int64, in *relation.Instance, eng *session.Engine, sigma fd.Set) *replaySession {
	rs := &replaySession{}
	sp := p.tr.begin(req, parent, "weights")
	var w weights.Func = weights.NewDistinctCount(in)
	sp.end()
	if p.tr != nil {
		rs.w = &timedWeights{w: w, tr: p.tr, req: req}
		w = rs.w
	}
	sp = p.tr.begin(req, parent, "conflict.build")
	rs.an = eng.Acquire(sigma)
	sp.end()
	sp = p.tr.begin(req, parent, "components.decompose")
	rs.dec = eng.CoverEvaluator(sigma)
	sp.end()
	sp = p.tr.begin(req, parent, "search.setup")
	if rs.w != nil {
		rs.w.parent.Store(sp.id)
	}
	rs.s = search.NewSearcher(rs.an, w, search.Options{Decomp: rs.dec})
	sp.end()
	p.mu.Lock()
	if _, seen := p.c.evals[rs.dec]; !seen {
		p.c.evals[rs.dec] = rs.dec.Counters()
	}
	p.mu.Unlock()
	return rs
}

func (rs *replaySession) close(eng *session.Engine) { eng.Release(rs.an) }

// sweep replays POST /v1/repair: resolve the τ range (δP through a session
// of its own when the request leaves it open, as Repairer.MaxBudget does),
// then stream the frontier — each result gets its cover, its data repair
// and its wire row inside the search's emit callback.
func (p *replayer) sweep(ctx context.Context, req int64, first *time.Time) ([]byte, error) {
	root := p.tr.begin(req, 0, "sweep")
	defer root.end()
	in, eng, _ := p.tbl.Snapshot()
	sigma, err := fd.ParseSet(in.Schema, p.r.x.fds)
	if err == nil {
		err = repair.Validate(in, sigma)
	}
	if err != nil {
		return nil, err
	}
	lo, hi := p.r.x.lo, p.r.x.hi
	if hi < 0 {
		rs := p.openSession(req, root.id, in, eng, sigma)
		hi = rs.s.DeltaPOriginal()
		rs.close(eng)
	}
	rs := p.openSession(req, root.id, in, eng, sigma)
	defer rs.close(eng)
	sp := p.tr.begin(req, root.id, "search")
	if rs.w != nil {
		rs.w.parent.Store(sp.id)
	}
	var body []byte
	tau, level, cells := hi, 0, 0
	err = rs.s.FindRangeStream(ctx, lo, hi, func(res *search.Result) error {
		c := p.tr.begin(req, sp.id, "conflict.cover")
		cover := rs.an.Cover(res.State)
		c.end()
		d := p.tr.begin(req, sp.id, "repair.data")
		data, err := repair.RepairData(in, res.Sigma, cover, 0, eng)
		d.end()
		if err != nil {
			return err
		}
		rep := &repair.Repair{Sigma: res.Sigma, Ext: res.State, FDCost: res.Cost, Data: data,
			Tau: tau, DeltaP: res.DeltaP, Stats: res.Stats}
		tau = res.DeltaP - 1
		level++
		cells += data.NumChanges()
		e := p.tr.begin(req, sp.id, "report.encode")
		line, err := json.Marshal(report.RowOf(in, level, rep))
		e.end()
		if len(body) == 0 {
			*first = time.Now()
		}
		body = append(append(body, line...), '\n')
		return err
	})
	sp.end()
	if err != nil {
		return nil, err
	}
	st := rs.s.LastStats()
	p.mu.Lock()
	p.c.sweeps++
	p.c.visited += int64(st.Visited)
	p.c.generated += int64(st.Generated)
	p.c.gcCalls += int64(st.GCCalls)
	p.c.cover = p.c.cover.Add(rs.s.CoverCacheStats())
	p.c.cellsChanged += int64(cells)
	if rs.w != nil {
		p.c.weightCalls += rs.w.calls.Load()
	}
	p.mu.Unlock()
	return body, nil
}

// discover replays POST /v1/discover: stream the lattice walk over the
// snapshot's shared partition store, encoding each FD frame as it is
// found, then the sorted sigma frame.
func (p *replayer) discover(ctx context.Context, req int64, first *time.Time) ([]byte, error) {
	root := p.tr.begin(req, 0, "discover")
	defer root.end()
	in, eng, _ := p.tbl.Snapshot()
	type mark struct {
		level, sets int
		at          time.Time
	}
	var marks []mark
	var body []byte
	var mined fd.Set
	sp := p.tr.begin(req, root.id, "discovery")
	err := discovery.Stream(ctx, in, discovery.StreamOptions{
		MaxLHS: discoverMaxLHS, MaxError: discoverMaxError, Store: eng.Partitions(),
		Progress: func(level, sets int) { marks = append(marks, mark{level, sets, time.Now()}) },
	}, func(f discovery.Found) error {
		e := p.tr.begin(req, sp.id, "server.encode")
		line, err := json.Marshal(discoverFrame{N: len(mined) + 1, FD: f.FD.Format(in.Schema), Level: f.Level, Error: f.Error})
		e.end()
		if len(body) == 0 {
			*first = time.Now()
		}
		body = append(append(body, line...), '\n')
		mined = append(mined, f.FD)
		return err
	})
	walked := time.Now()
	sp.end()
	if err != nil {
		return nil, err
	}
	sortSigma(mined)
	e := p.tr.begin(req, root.id, "server.encode")
	line, err := json.Marshal(sigmaFrame{Sigma: mined.Format(in.Schema), FDs: len(mined)})
	e.end()
	if err != nil {
		return nil, err
	}
	body = append(append(body, line...), '\n')
	p.mu.Lock()
	p.c.discovers++
	p.c.fds += int64(len(mined))
	for i, m := range marks {
		end := walked
		if i+1 < len(marks) {
			end = marks[i+1].at
		}
		p.c.candidates += int64(m.sets)
		p.c.levels[m.level] = append(p.c.levels[m.level], ms(end.Sub(m.at)))
	}
	p.mu.Unlock()
	return body, nil
}

// sortSigma orders a mined Σ as the sigma frame does: by RHS, then LHS
// size, then LHS.
func sortSigma(set fd.Set) {
	sort.Slice(set, func(i, j int) bool {
		if set[i].RHS != set[j].RHS {
			return set[i].RHS < set[j].RHS
		}
		if set[i].LHS.Len() != set[j].LHS.Len() {
			return set[i].LHS.Len() < set[j].LHS.Len()
		}
		return set[i].LHS < set[j].LHS
	})
}

// commit replays PATCH /v1/datasets/{name}/rows with write-through: the
// table builds the next generation, the precommit hook persists the
// generation sidecar then the snapshot, and the batch commits.
func (p *replayer) commit(i int) error {
	req := p.reqs.Add(1)
	root := p.tr.begin(req, 0, "commit")
	defer root.end()
	ap := p.tr.begin(req, root.id, "live.apply")
	next := p.tbl.Generation() + 1
	res, err := p.tbl.Apply(p.r.x.batches[i].ops, func(in *relation.Instance) error {
		s := p.tr.begin(req, ap.id, "store.save_generation")
		err := p.st.SaveGeneration(datasetName, next)
		s.end()
		if err != nil {
			return err
		}
		s = p.tr.begin(req, ap.id, "store.save")
		err = p.st.Save(datasetName, in)
		s.end()
		return err
	})
	ap.end()
	if err != nil {
		return err
	}
	body, err := json.Marshal(mutateResponse{Generation: res.Generation, Rows: res.NewN})
	if err != nil {
		return err
	}
	written := fileSize(filepath.Join(p.dir, datasetName+".snap")) + fileSize(filepath.Join(p.dir, datasetName+".gen"))
	p.mu.Lock()
	p.c.commits++
	p.c.dirtied += int64(res.ComponentsDirtied)
	p.c.bytesWritten += written
	p.mu.Unlock()
	return checkCommit(body, int64(i+1), p.r.x.batches[i].rows)
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// replayPhase replays the workload for d, or exactly limit primary
// operations when limit > 0 (the traced phase repeats the untraced phase's
// count). ref is the server's answer every replayed read must reproduce.
func (r *runner) replayPhase(tr *tracer, ref []byte, d time.Duration, limit int) (*replayer, phase, error) {
	p, err := r.newReplayer(tr)
	if err != nil {
		return nil, phase{}, err
	}
	defer p.close()
	ctx := context.Background()
	var warm time.Time
	if body, err := p.read(ctx, &warm); err != nil || !bytes.Equal(body, ref) {
		return nil, phase{}, fmt.Errorf("replayed warm-up read differs from the server's answer (err %v)", err)
	}
	// The warm-up is set-up, not traffic: drop its spans and counts.
	if tr != nil {
		tr.mu.Lock()
		tr.spans = tr.spans[:0]
		tr.mu.Unlock()
	}
	p.c = newLayerCounts()

	read := func() (sample, error) {
		s := sample{sent: time.Now()}
		body, err := p.read(ctx, &s.first)
		s.end = time.Now()
		s.due = s.sent
		if err == nil {
			err = r.checkRead(body, ref)
		}
		return s, err
	}
	commit := func(i int) (sample, error) {
		s := sample{sent: time.Now()}
		err := p.commit(i)
		s.end = time.Now()
		s.first = s.end
		return s, err
	}
	return p, r.drive(read, commit, d, limit), nil
}
