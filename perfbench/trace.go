package main

// Span recording for the traced run. Spans are taken from the
// benchmark's own code around each call into a layer: the client call
// (fleet/client), an http.RoundTripper in the client's transport
// (net/http and loopback), a Server.Wrap middleware (the fleet edge)
// and the design steps (dse, runtime, pareto, taskgraph). Nothing is
// added inside the program; the registry and runtime stages come from
// the histograms /metrics already exposes.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"clrdse/internal/obs"
)

// spanName names the layer boundary a span was recorded at.
type spanName uint8

const (
	spanQoS spanName = iota
	spanBatch
	spanRegister
	spanDeregister
	spanTransport
	spanEdge
	spanDesign
	spanGenerate
	spanBase
	spanReD
	spanPretrain
	spanSimulate
	spanHV
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spanQoS:        "client.qos",
	spanBatch:      "client.decide_batch",
	spanRegister:   "client.register",
	spanDeregister: "client.deregister",
	spanTransport:  "transport",
	spanEdge:       "fleet.edge",
	spanDesign:     "design.op",
	spanGenerate:   "taskgraph.generate",
	spanBase:       "dse.base",
	spanReD:        "dse.red",
	spanPretrain:   "runtime.pretrain",
	spanSimulate:   "runtime.simulate",
	spanHV:         "pareto.hv",
}

func (n spanName) String() string { return spanNames[n] }

// span is one recorded layer interval. Times are nanoseconds since the
// tracer's epoch on the monotonic clock; parent is the index of the
// span that caused this one (-1 for a root); req is shared by every
// span of one call or op.
type span struct {
	name       spanName
	parent     int32
	req        uint32
	start, end int64
}

// spanRef locates a span and its request, carried through contexts.
type spanRef struct {
	id  int32
	req uint32
}

// tracer keeps every span in memory until the run ends. Recording is
// switched on and off with on, so one process can measure an untraced
// phase and a traced phase over the same set-up.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
	// links maps a call's trace ID (X-Clr-Trace-Id) to its transport
	// span, which is how the server-side edge span finds its parent.
	links map[string]spanRef
}

func newTracer(capacity int) *tracer {
	return &tracer{
		epoch: time.Now(),
		spans: make([]span, 0, capacity),
		links: make(map[string]spanRef),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index.
func (t *tracer) begin(name spanName, parent int32, req uint32) int32 {
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: start})
	t.mu.Unlock()
	return id
}

// finish closes the span.
func (t *tracer) finish(id int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// root opens a root span for request req.
func (t *tracer) root(name spanName, req uint32) spanRef {
	return spanRef{id: t.begin(name, -1, req), req: req}
}

// child opens a span under ref.
func (t *tracer) child(name spanName, ref spanRef) int32 {
	return t.begin(name, ref.id, ref.req)
}

func (t *tracer) link(trace string, ref spanRef) {
	t.mu.Lock()
	t.links[trace] = ref
	t.mu.Unlock()
}

func (t *tracer) linked(trace string) (spanRef, bool) {
	t.mu.Lock()
	ref, ok := t.links[trace]
	t.mu.Unlock()
	return ref, ok
}

func (t *tracer) unlink(trace string) {
	t.mu.Lock()
	delete(t.links, trace)
	t.mu.Unlock()
}

// spanKey carries a call's root span through the client into the
// transport.
type spanKey struct{}

// callContext returns the context one traced call runs under: the
// benchmark mints the call's trace ID itself, so the transport and the
// server edge can both find the call.
func callContext(ref spanRef) context.Context {
	ctx := obs.WithTrace(context.Background(), obs.TraceID(fmt.Sprintf("%016x", uint64(ref.req)+1)))
	return context.WithValue(ctx, spanKey{}, ref)
}

// tracedTransport records the transport span: from RoundTrip to the
// close of the response body, which the client reads in full first.
type tracedTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := req.Context().Value(spanKey{}).(spanRef)
	if !ok || !tt.t.on.Load() {
		return tt.base.RoundTrip(req)
	}
	trace := req.Header.Get(obs.TraceHeader)
	id := tt.t.child(spanTransport, ref)
	tt.t.link(trace, spanRef{id: id, req: ref.req})
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		tt.t.finish(id)
		tt.t.unlink(trace)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tt.t, id: id, trace: trace}
	return resp, nil
}

// spanBody ends the transport span when the client closes the body.
type spanBody struct {
	io.ReadCloser
	t     *tracer
	id    int32
	trace string
	done  bool
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.done {
		b.done = true
		b.t.finish(b.id)
		b.t.unlink(b.trace)
	}
	return err
}

// middleware records the fleet edge span: the server's whole handler
// chain for one request (logging, trace propagation, decode, registry,
// encode). Requests that are not part of a traced call pass through.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		ref, ok := t.linked(r.Header.Get(obs.TraceHeader))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		id := t.child(spanEdge, ref)
		next.ServeHTTP(w, r)
		t.finish(id)
	})
}

// layerTime sums a set of spans' count, total duration and total self
// time (duration minus the part its children cover).
type layerTime struct {
	count int
	dur   int64
	self  int64
}

// layerTable is indexed by the name of a span's root (the kind of call
// or op it belongs to) and then by the span's own name.
type layerTable [numSpanNames][numSpanNames]layerTime

// layers aggregates the recorded spans.
func (t *tracer) layers() *layerTable {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	return aggregate(spans)
}

// aggregate computes the per-root, per-name totals. Children are
// grouped under their parent by a counting pass, so the cost is linear
// in the span count; a parent always precedes its children.
func aggregate(spans []span) *layerTable {
	first := make([]int32, len(spans)+1)
	for _, s := range spans {
		if s.parent >= 0 {
			first[s.parent+1]++
		}
	}
	for i := 1; i < len(first); i++ {
		first[i] += first[i-1]
	}
	fill := append([]int32(nil), first[:len(spans)]...)
	kids := make([]int32, first[len(spans)])
	roots := make([]spanName, len(spans))
	for i, s := range spans {
		roots[i] = s.name
		if s.parent >= 0 {
			kids[fill[s.parent]] = int32(i)
			fill[s.parent]++
			roots[i] = roots[s.parent]
		}
	}
	out := new(layerTable)
	var ivs []interval
	for i, s := range spans {
		ivs = ivs[:0]
		for _, k := range kids[first[i]:first[i+1]] {
			ivs = append(ivs, interval{spans[k].start, spans[k].end})
		}
		dur := s.end - s.start
		lt := &out[roots[i]][s.name]
		lt.count++
		lt.dur += dur
		lt.self += dur - covered(s.start, s.end, ivs)
	}
	return out
}

// write stores the spans as tab-separated text: one span per line with
// its index, name, parent index, request ID and start/end nanoseconds.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "span\tname\tparent\treq\tstart_ns\tend_ns")
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, s.name, s.parent, s.req, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
