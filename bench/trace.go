package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced call into a layer, timed by the harness around the
// call. A request's root span has Parent 0; every other span's Parent is
// the span that was open around it in the same request.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Self is End−Start minus the part of that interval covered by the
	// span's children (filled by analyze).
	Self int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the same replay code runs with spans on and off.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t     *tracer
	id    int64
	s     span
	start time.Time
}

// begin opens a span named name under parent (0 for a request root).
func (t *tracer) begin(req, parent int64, name string) openSpan {
	if t == nil {
		return openSpan{}
	}
	now := time.Now()
	id := t.ids.Add(1)
	return openSpan{t: t, id: id, start: now, s: span{ID: id, Parent: parent, Req: req, Name: name}}
}

// end closes the span and records it.
func (o openSpan) end() {
	if o.t == nil {
		return
	}
	now := time.Now()
	o.s.Start = int64(o.start.Sub(o.t.epoch))
	o.s.End = int64(now.Sub(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// analyze fills every span's self time: its duration minus the union of
// its children's intervals (children of concurrent workers may overlap).
func analyze(spans []span) {
	kids := make(map[int64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return spans[ch[a]].Start < spans[ch[b]].Start })
		covered, reach := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(spans[c].Start, reach), min(spans[c].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// layerOf maps a span name to its layer: the module before the first dot.
// Request roots carry the request kind and no layer; their self time is
// the replay's own glue, left unattributed.
func layerOf(s span) string {
	if s.Parent == 0 {
		return "unattributed"
	}
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// metricOf names the per-request self-time metric of a span name:
// "search" → "search.ms", "search.setup" → "search.setup_ms".
func metricOf(name string) string {
	if strings.Contains(name, ".") {
		return name + "_ms"
	}
	return name + ".ms"
}

// layerReport aggregates analyzed spans into per-layer metrics: for every
// span name the per-request self time (p50 over the requests that made the
// call, and the total), each layer's share of all replayed request time,
// and how much of that time the layers account for.
func layerReport(spans []span, m metrics) {
	var reqTotal int64
	perReq := map[string]map[int64]int64{}
	perLayer := map[string]int64{}
	for _, s := range spans {
		if s.Parent == 0 {
			reqTotal += s.End - s.Start
		}
		perLayer[layerOf(s)] += s.Self
		if s.Parent == 0 {
			continue
		}
		name := metricOf(s.Name)
		if perReq[name] == nil {
			perReq[name] = map[int64]int64{}
		}
		perReq[name][s.Req] += s.Self
	}
	for name, byReq := range perReq {
		var xs []float64
		for _, v := range byReq {
			xs = append(xs, ms(time.Duration(v)))
		}
		m[name+".p50"] = metric{Value: quantile(xs, 0.5), Unit: "ms", Samples: len(xs)}
		m[name+".total"] = metric{Value: sum(xs), Unit: "ms", Samples: len(xs)}
	}
	if reqTotal == 0 {
		return
	}
	attributed := int64(0)
	for _, layer := range traceLayers {
		v := perLayer[layer]
		attributed += v
		m[layer+".share_pct"] = metric{Value: 100 * float64(v) / float64(reqTotal), Unit: "%"}
	}
	m["unattributed.share_pct"] = metric{Value: 100 * float64(perLayer["unattributed"]) / float64(reqTotal), Unit: "%"}
	m["trace.coverage_pct"] = metric{Value: 100 * float64(attributed) / float64(reqTotal), Unit: "%"}
}

// traceLayers are the layers the replay puts spans around.
var traceLayers = []string{
	"search", "weights", "conflict", "components", "repair", "report",
	"live", "store", "discovery", "server",
}

// writeSpans dumps the analyzed spans as JSON.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
