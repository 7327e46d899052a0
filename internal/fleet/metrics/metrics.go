// Package metrics is a minimal, dependency-free instrumentation
// substrate for the fleet decision service: atomic counters, gauges
// and fixed-bucket latency histograms, rendered in the Prometheus
// text exposition format. It exists so the service can expose a
// /metrics endpoint without pulling a client library into a module
// that is otherwise pure standard library.
//
// All instruments are safe for concurrent use and lock-free on the
// hot path (a single atomic add per observation); the only lock
// guards instrument registration, which happens at start-up.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a set of named instruments and renders them.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
	// order preserves registration order for stable rendering.
	order []string
}

// family groups all instruments sharing one metric name (differing
// only in labels), so HELP/TYPE headers render once per name.
type family struct {
	name, help, typ string
	instruments     []renderable
}

type renderable interface {
	render(w io.Writer, name string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func (r *Registry) register(name, help, typ string, inst renderable) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.fams[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as both %s and %s", name, f.typ, typ))
	}
	f.instruments = append(f.instruments, inst)
}

// Counter registers and returns a monotonically increasing counter.
// Labels are constant key/value pairs attached to every sample.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := &Counter{labels: renderLabels(labels)}
	r.register(name, help, "counter", c)
	return c
}

// Gauge registers and returns a gauge (a value that can go down).
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	g := &Gauge{labels: renderLabels(labels)}
	r.register(name, help, "gauge", g)
	return g
}

// Histogram registers and returns a fixed-bucket histogram. Bounds are
// inclusive upper bucket bounds in ascending order; a +Inf bucket is
// implicit. A nil bounds slice selects DefaultLatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets()
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("metrics: histogram bounds must be sorted")
	}
	h := &Histogram{
		labels: renderLabels(labels),
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.register(name, help, "histogram", h)
	return h
}

// DefaultLatencyBuckets spans 1 µs to 2.5 s in a 1-2.5-5 progression,
// suitable for in-process decision latencies measured in seconds.
func DefaultLatencyBuckets() []float64 {
	var b []float64
	for _, e := range []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1} {
		b = append(b, e, 2.5*e, 5*e)
	}
	return b
}

// StageLatencyBuckets spans 100 ns to 50 ms in the same 1-2.5-5
// progression, for the decide path's per-stage spans: individual
// stages (filter, score, switch, agent update) run in hundreds of
// nanoseconds to microseconds, below DefaultLatencyBuckets'
// resolution floor.
func StageLatencyBuckets() []float64 {
	var b []float64
	for _, e := range []float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2} {
		b = append(b, e, 2.5*e, 5*e)
	}
	return b
}

// WritePrometheus renders every registered instrument in the
// Prometheus text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.fams[name]
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, inst := range f.instruments {
			inst.render(w, f.name)
		}
	}
}

// renderLabels turns ("k","v","k2","v2") into `{k="v",k2="v2"}`.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("metrics: odd label key/value list")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLabels splices an extra label into an already-rendered label
// set (used for the histogram's le label).
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// Counter is a monotonically increasing counter.
type Counter struct {
	labels string
	v      atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) render(w io.Writer, name string) {
	fmt.Fprintf(w, "%s%s %d\n", name, c.labels, c.v.Load())
}

// Gauge is a value that can move in both directions.
type Gauge struct {
	labels string
	v      atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) render(w io.Writer, name string) {
	fmt.Fprintf(w, "%s%s %d\n", name, g.labels, g.v.Load())
}

// Histogram is a fixed-bucket histogram with cumulative bucket
// rendering, a sum and a count, as Prometheus expects.
type Histogram struct {
	labels string
	bounds []float64
	// counts[i] is the number of observations in bucket i (bucket
	// len(bounds) is the +Inf overflow); rendering accumulates them.
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) render(w io.Writer, name string) {
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		le := mergeLabels(h.labels, fmt.Sprintf(`le="%g"`, bound))
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, le, cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	le := mergeLabels(h.labels, `le="+Inf"`)
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, le, cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, h.labels, h.Sum())
	fmt.Fprintf(w, "%s_count%s %d\n", name, h.labels, h.count.Load())
}
