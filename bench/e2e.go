package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"relatrust"
	"relatrust/internal/relation"
	"relatrust/internal/report"
	"relatrust/internal/server"
	"relatrust/internal/store"
)

// maxConns caps the harness's connections to the server: the load
// generator never has more requests in flight than the box has CPUs (2).
const maxConns = 2

// target is one in-process relatrustd: server.New with default options
// (plus a durable store for the live workload) behind an httptest
// listener on loopback TCP.
type target struct {
	hs     *httptest.Server
	client *http.Client
	dir    string
}

func startTarget(durable bool, workDir string) (*target, error) {
	var opt server.Options
	t := &target{}
	if durable {
		dir, err := os.MkdirTemp(workDir, "store-")
		if err != nil {
			return nil, err
		}
		t.dir = dir
		if opt.Store, err = store.Open(dir, store.Options{}); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	}
	t.hs = httptest.NewServer(server.New(opt))
	t.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
	return t, nil
}

// close waits for in-flight requests, stops the listener and removes the
// store directory.
func (t *target) close() {
	t.client.CloseIdleConnections()
	t.hs.Close()
	if t.dir != "" {
		os.RemoveAll(t.dir)
	}
}

// sample times one request. For open-loop requests due is the scheduled
// send time; otherwise it equals sent.
type sample struct {
	due, sent, first, end time.Time
}

// call sends one request and reads the whole response, timing the first
// line (the first streamed frame) and the end of the stream. A non-2xx
// status is an error.
func (t *target) call(method, path string, body []byte) (sample, []byte, error) {
	s := sample{sent: time.Now()}
	s.due = s.sent
	req, err := http.NewRequest(method, t.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return s, nil, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return s, nil, err
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadBytes('\n')
	s.first = time.Now()
	if err != nil && err != io.EOF {
		return s, nil, err
	}
	rest, err := io.ReadAll(br)
	s.end = time.Now()
	if err != nil {
		return s, nil, err
	}
	out := append(first, rest...)
	if resp.StatusCode/100 != 2 {
		return s, out, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return s, out, nil
}

// checks counts attempted operations and failures; a failure is a transport
// error, a non-2xx status, an in-band error frame or an output mismatch.
type checks struct {
	mu        sync.Mutex
	attempted int
	failed    int
	notes     []string
}

// record counts one operation, failed when err is non-nil.
func (c *checks) record(err error) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err == nil {
		return true
	}
	c.failed++
	if len(c.notes) < 8 {
		c.notes = append(c.notes, err.Error())
	}
	return false
}

// phase is the outcome of one measured traffic phase.
type phase struct {
	// ops are the workload's primary operations: frontier sweeps,
	// discovery streams, or (live) PATCH commits.
	ops []sample
	// reads are the streamed reads whose first frame is timed; for the
	// frontier and discovery workloads the same requests as ops.
	reads []sample
	// late is, for each open-loop send, how far behind schedule it went
	// out; its length is the number of batches sent.
	late []time.Duration
}

// opMS is the latency of each primary operation; open-loop operations are
// timed from their due time.
func (p *phase) opMS() []float64 {
	out := make([]float64, len(p.ops))
	for i, s := range p.ops {
		out[i] = ms(s.end.Sub(s.due))
	}
	return out
}

func (p *phase) firstRowMS() []float64 {
	out := make([]float64, len(p.reads))
	for i, s := range p.reads {
		out[i] = ms(s.first.Sub(s.sent))
	}
	return out
}

// closedLoop is one client that sends its next request only after the
// previous one completed, until stop passes or limit requests (when
// limit > 0) were sent. One client leaves the server's search workers
// (GOMAXPROCS of them) the box's CPUs; a second client would time the
// scheduler sharing them out.
func closedLoop(stop time.Time, limit int, do func()) {
	for i := 0; (limit <= 0 || i < limit) && time.Now().Before(stop); i++ {
		do()
	}
}

// openLoop calls send for each of count operations at its due time, start +
// i·period, in order on the calling goroutine; an operation whose
// predecessor overran goes out late, and is still timed from its due time.
func openLoop(start time.Time, period time.Duration, count int, send func(i int, due time.Time)) {
	for i := 0; i < count; i++ {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		send(i, due)
	}
}

// runner drives one workload run.
type runner struct {
	w       *workload
	x       *inputs
	workDir string
	check   checks
}

// setup starts a server, uploads the CSV, and sends one warm-up read whose
// answer must match the in-process oracle; that answer is the reference
// every later read must reproduce. It returns the server, the time all of
// that took, and the reference.
func (r *runner) setup() (*target, time.Duration, []byte, error) {
	t0 := time.Now()
	tg, err := startTarget(r.w.kind == kindLive, r.workDir)
	if err != nil {
		return nil, 0, nil, err
	}
	if _, _, err := tg.call(http.MethodPost, "/v1/datasets", r.x.register); err != nil {
		tg.close()
		return nil, 0, nil, err
	}
	_, body, err := tg.call(http.MethodPost, r.x.readPath, r.x.read)
	elapsed := time.Since(t0)
	if err == nil {
		err = r.checkWarm(body)
	}
	if !r.check.record(err) {
		tg.close()
		return nil, 0, nil, fmt.Errorf("warm-up read: %w", err)
	}
	return tg, elapsed, body, nil
}

// checkWarm compares a warm-up answer with the in-process oracle.
func (r *runner) checkWarm(body []byte) error {
	if r.w.kind == kindDiscover {
		return checkSigma(body, r.x.wantSigma)
	}
	return checkRows(body, r.x.wantRows)
}

// checkRows decodes an NDJSON frontier and compares it row by row (τ, δP,
// fd_cost, Σ′, cell changes, level) with the oracle's.
func checkRows(body []byte, want []report.Row) error {
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) != len(want) {
		return fmt.Errorf("frontier has %d rows, oracle %d", len(lines), len(want))
	}
	for i, line := range lines {
		var got report.Row
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			return fmt.Errorf("frontier row %d: %v: %s", i+1, err, line)
		}
		if got != want[i] {
			return fmt.Errorf("frontier row %d = %+v, oracle %+v", i+1, got, want[i])
		}
	}
	return nil
}

// checkSigma finds the sigma frame of a discovery stream and compares it
// with the oracle's.
func checkSigma(body []byte, want sigmaFrame) error {
	for _, line := range bytes.Split(body, []byte("\n")) {
		if !bytes.Contains(line, []byte(`"sigma"`)) {
			continue
		}
		var got sigmaFrame
		if err := json.Unmarshal(line, &got); err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("sigma frame %+v, oracle %+v", got, want)
		}
		return nil
	}
	return fmt.Errorf("discovery stream has no sigma frame")
}

// measure drives the workload's traffic against the server for d (or
// until limit primary operations, when limit > 0). ref is the warm-up
// answer; for the live workload one sweep after the run must equal a fresh
// in-process frontier over the harness's mirror of the rows.
func (r *runner) measure(tg *target, ref []byte, d time.Duration, limit int) phase {
	read := func() (sample, error) {
		s, body, err := tg.call(http.MethodPost, r.x.readPath, r.x.read)
		if err == nil {
			err = r.checkRead(body, ref)
		}
		return s, err
	}
	commit := func(i int) (sample, error) {
		s, body, err := tg.call(http.MethodPatch, "/v1/datasets/"+datasetName+"/rows", r.x.batches[i].body)
		if err == nil {
			err = checkCommit(body, int64(i+1), r.x.batches[i].rows)
		}
		return s, err
	}
	p := r.drive(read, commit, d, limit)
	if r.w.kind == kindLive {
		r.check.record(r.checkMirror(tg, len(p.late)))
	}
	return p
}

// drive runs the workload's traffic shape for d, or limit primary
// operations when limit > 0: one closed-loop reader, or for the live workload
// the batches committed open loop at the workload's rate, each timed from
// its due time, beside one closed-loop reader.
func (r *runner) drive(read func() (sample, error), commit func(i int) (sample, error), d time.Duration, limit int) phase {
	var mu sync.Mutex
	var p phase
	readOnce := func() {
		s, err := read()
		if r.check.record(err) {
			mu.Lock()
			p.reads = append(p.reads, s)
			mu.Unlock()
		}
	}
	if r.w.kind != kindLive {
		stop := time.Now().Add(d)
		if limit > 0 {
			stop = time.Now().Add(24 * time.Hour)
		}
		closedLoop(stop, limit, readOnce)
		p.ops = p.reads
		return p
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				readOnce()
			}
		}
	}()
	openLoop(time.Now(), r.period(), r.commitCount(d, limit), func(i int, due time.Time) {
		s, err := commit(i)
		s.due = due
		mu.Lock()
		defer mu.Unlock()
		p.late = append(p.late, s.sent.Sub(due))
		if r.check.record(err) {
			p.ops = append(p.ops, s)
		}
	})
	close(stop)
	wg.Wait()
	return p
}

// checkRead holds a repeated read to the warm-up answer byte for byte.
// Under live writes each sweep answers for the generation it pinned, so
// there it only has to be a clean stream.
func (r *runner) checkRead(body, ref []byte) error {
	if r.w.kind == kindLive {
		return checkStream(body)
	}
	if !bytes.Equal(body, ref) {
		return fmt.Errorf("read answer differs from the warm-up reference")
	}
	return nil
}

// commitCount is the number of batches a live phase of length d sends.
func (r *runner) commitCount(d time.Duration, limit int) int {
	if limit > 0 {
		return limit
	}
	return max(1, int(d.Seconds()*r.w.rate))
}

func (r *runner) period() time.Duration {
	return time.Duration(float64(time.Second) / r.w.rate)
}

func checkCommit(body []byte, gen int64, rows int) error {
	var got mutateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("PATCH response: %v", err)
	}
	if got.Generation != gen || got.Rows != rows {
		return fmt.Errorf("PATCH committed generation %d with %d rows, want generation %d with %d rows",
			got.Generation, got.Rows, gen, rows)
	}
	return nil
}

// checkStream rejects an empty frontier stream or one carrying an in-band
// error frame.
func checkStream(body []byte) error {
	if len(body) == 0 {
		return fmt.Errorf("empty frontier stream")
	}
	if bytes.Contains(body, []byte(`{"error":`)) {
		return fmt.Errorf("in-band error: %s", bytes.TrimSpace(body))
	}
	return nil
}

// checkMirror sweeps once after commits batches and compares the frontier
// with a fresh in-process Repairer over the harness's mirror of the rows.
func (r *runner) checkMirror(tg *target, commits int) error {
	_, body, err := tg.call(http.MethodPost, r.x.readPath, r.x.read)
	if err != nil {
		return err
	}
	rows := mirrorOf(r.x.in)
	for _, b := range r.x.batches[:commits] {
		rows = applyOps(rows, b.ops)
	}
	in := relation.NewInstance(r.x.in.Schema)
	in.Tuples = rows
	rp, err := relatrust.NewRepairer(in, r.x.sigma, relatrust.Options{})
	if err != nil {
		return err
	}
	want, err := frontierRows(context.Background(), rp, 0, -1)
	if err != nil {
		return err
	}
	if err := checkRows(body, want); err != nil {
		return fmt.Errorf("after %d commits: %w", commits, err)
	}
	return nil
}

// settle collects garbage left by the previous step so it is not charged to
// the next timed one.
func settle() { runtime.GC() }
