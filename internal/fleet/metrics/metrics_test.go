package metrics

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("clr_fleet_decisions_total", "Total decisions.")
	ce := r.Counter("clr_http_requests_total", "Requests.", "endpoint", "qos")
	g := r.Gauge("clr_fleet_devices", "Registered devices.")
	c.Inc()
	c.Add(4)
	ce.Inc()
	g.Add(3)
	g.Add(-1)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if g.Value() != 2 {
		t.Errorf("gauge = %d, want 2", g.Value())
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP clr_fleet_decisions_total Total decisions.",
		"# TYPE clr_fleet_decisions_total counter",
		"clr_fleet_decisions_total 5",
		`clr_http_requests_total{endpoint="qos"} 1`,
		"# TYPE clr_fleet_devices gauge",
		"clr_fleet_devices 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "Latency.", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.001, 0.005, 0.05, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-5.0565) > 1e-12 {
		t.Errorf("sum = %v, want 5.0565", h.Sum())
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`lat_bucket{le="0.001"} 2`,
		`lat_bucket{le="0.01"} 3`,
		`lat_bucket{le="0.1"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		"lat_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q:\n%s", want, out)
		}
	}
}

func TestDefaultLatencyBucketsSorted(t *testing.T) {
	b := DefaultLatencyBuckets()
	if !sort.Float64sAreSorted(b) {
		t.Fatalf("default buckets not sorted: %v", b)
	}
	if b[0] != 1e-6 || b[len(b)-1] != 5 {
		t.Errorf("unexpected bucket envelope: %v .. %v", b[0], b[len(b)-1])
	}
}

func TestStageLatencyBucketsSorted(t *testing.T) {
	b := StageLatencyBuckets()
	if !sort.Float64sAreSorted(b) {
		t.Fatalf("stage buckets not sorted: %v", b)
	}
	if b[0] != 1e-7 || b[len(b)-1] != 5e-2 {
		t.Errorf("unexpected bucket envelope: %v .. %v", b[0], b[len(b)-1])
	}
	// Stage buckets must resolve sub-microsecond spans, which the
	// default buckets lump into their first bucket.
	if b[0] >= DefaultLatencyBuckets()[0] {
		t.Errorf("stage buckets do not extend below the default floor")
	}
}

func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "c")
	h := r.Histogram("h", "h", nil)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i) * 1e-6)
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}
