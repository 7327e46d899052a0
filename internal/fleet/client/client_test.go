package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"clrdse/internal/fleet"
	"clrdse/internal/obs"
	"clrdse/internal/rng"
)

// TestBackoffDelays: the exponential schedule with its cap, jitter off.
func TestBackoffDelays(t *testing.T) {
	b := Backoff{Base: 50 * time.Millisecond, Max: 400 * time.Millisecond}
	tests := []struct {
		attempt int
		want    time.Duration
	}{
		{0, 50 * time.Millisecond},
		{1, 100 * time.Millisecond},
		{2, 200 * time.Millisecond},
		{3, 400 * time.Millisecond},
		{4, 400 * time.Millisecond},  // capped
		{10, 400 * time.Millisecond}, // stays capped, no overflow
	}
	for _, tc := range tests {
		if got := b.Delay(tc.attempt, nil); got != tc.want {
			t.Errorf("Delay(%d) = %v, want %v", tc.attempt, got, tc.want)
		}
	}
}

// TestBackoffJitterBounds: with jitter j, every delay lies in
// [(1-j)*nominal, nominal], and a fixed seed reproduces the sequence.
func TestBackoffJitterBounds(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Jitter: 0.5}
	src := rng.New(42)
	var first []time.Duration
	for attempt := 0; attempt < 6; attempt++ {
		nominal := Backoff{Base: b.Base, Max: b.Max}.Delay(attempt, nil)
		for i := 0; i < 50; i++ {
			d := b.Delay(attempt, src)
			if d > nominal || d < time.Duration(float64(nominal)*(1-b.Jitter)) {
				t.Fatalf("Delay(%d) = %v outside [%v, %v]",
					attempt, d, time.Duration(float64(nominal)*(1-b.Jitter)), nominal)
			}
			first = append(first, d)
		}
	}
	src2 := rng.New(42)
	i := 0
	for attempt := 0; attempt < 6; attempt++ {
		for k := 0; k < 50; k++ {
			if d := b.Delay(attempt, src2); d != first[i] {
				t.Fatalf("jitter stream not reproducible at #%d: %v != %v", i, d, first[i])
			}
			i++
		}
	}
}

// fakeClock is a manually advanced clock for breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestBreakerStateMachine walks the full closed → open → half-open →
// {closed, open} diagram with a fake clock.
func TestBreakerStateMachine(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	tests := []struct {
		name string
		run  func(t *testing.T, b *Breaker)
	}{
		{"stays closed below threshold", func(t *testing.T, b *Breaker) {
			b.Failure()
			b.Failure()
			if got := b.State(); got != Closed {
				t.Fatalf("state = %v, want closed", got)
			}
			if !b.Allow() {
				t.Fatal("closed breaker rejected a call")
			}
		}},
		{"success resets the failure run", func(t *testing.T, b *Breaker) {
			b.Failure()
			b.Failure()
			b.Success()
			b.Failure()
			b.Failure()
			if got := b.State(); got != Closed {
				t.Fatalf("state = %v, want closed after reset", got)
			}
		}},
		{"opens at threshold and rejects", func(t *testing.T, b *Breaker) {
			for i := 0; i < 3; i++ {
				b.Failure()
			}
			if got := b.State(); got != Open {
				t.Fatalf("state = %v, want open", got)
			}
			if b.Allow() {
				t.Fatal("open breaker admitted a call inside cooldown")
			}
			if got := b.Opens(); got != 1 {
				t.Fatalf("Opens() = %d, want 1", got)
			}
		}},
		{"half-open admits exactly one probe", func(t *testing.T, b *Breaker) {
			for i := 0; i < 3; i++ {
				b.Failure()
			}
			clk.advance(time.Second)
			if !b.Allow() {
				t.Fatal("cooldown elapsed but probe rejected")
			}
			if got := b.State(); got != HalfOpen {
				t.Fatalf("state = %v, want half-open", got)
			}
			if b.Allow() {
				t.Fatal("half-open breaker admitted a second concurrent probe")
			}
		}},
		{"probe success closes", func(t *testing.T, b *Breaker) {
			for i := 0; i < 3; i++ {
				b.Failure()
			}
			clk.advance(time.Second)
			b.Allow()
			b.Success()
			if got := b.State(); got != Closed {
				t.Fatalf("state = %v, want closed after probe success", got)
			}
			if !b.Allow() {
				t.Fatal("recovered breaker rejected a call")
			}
		}},
		{"probe failure re-opens for a fresh cooldown", func(t *testing.T, b *Breaker) {
			for i := 0; i < 3; i++ {
				b.Failure()
			}
			clk.advance(time.Second)
			b.Allow()
			b.Failure()
			if got := b.State(); got != Open {
				t.Fatalf("state = %v, want open after probe failure", got)
			}
			if b.Allow() {
				t.Fatal("re-opened breaker admitted a call before cooldown")
			}
			clk.advance(time.Second)
			if !b.Allow() {
				t.Fatal("re-opened breaker stayed shut after a full cooldown")
			}
			if got := b.Opens(); got != 2 {
				t.Fatalf("Opens() = %d, want 2", got)
			}
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, NewBreaker(3, time.Second, clk.now))
		})
	}
}

// TestRetryMasksTransientFailures: a server that fails the first N
// attempts is masked by the retry loop.
func TestRetryMasksTransientFailures(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `[{"name":"red","points":4}]`)
	}))
	defer ts.Close()

	c := New(Config{
		BaseURL:     ts.URL,
		MaxAttempts: 4,
		Backoff:     Backoff{Base: time.Millisecond, Max: time.Millisecond},
	})
	dbs, err := c.Databases(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(dbs) != 1 || dbs[0].Name != "red" {
		t.Fatalf("got %+v", dbs)
	}
	if got := c.Stats().Retries; got != 2 {
		t.Fatalf("Retries = %d, want 2", got)
	}
}

// TestPermanentErrorNotRetried: a 404 is the caller's problem, not the
// service's — one attempt, no retries, breaker stays closed.
func TestPermanentErrorNotRetried(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"fleet: no such device"}`, http.StatusNotFound)
	}))
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL, MaxAttempts: 4})
	_, err := c.Device(context.Background(), "ghost")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("err = %v, want APIError 404", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1", got)
	}
	if got := c.Breaker("device").State(); got != Closed {
		t.Fatalf("breaker = %v, want closed (endpoint answered coherently)", got)
	}
}

// TestBreakerOpensOnPersistentFailure: a hard-down endpoint opens its
// breaker, later calls are rejected without touching the network, and
// the other endpoints' breakers are unaffected.
func TestBreakerOpensOnPersistentFailure(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := New(Config{
		BaseURL:          ts.URL,
		MaxAttempts:      4,
		Backoff:          Backoff{Base: time.Millisecond, Max: time.Millisecond},
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour,
	})
	_, err := c.Databases(context.Background())
	if err == nil {
		t.Fatal("want error from hard-down endpoint")
	}
	if got := c.Breaker("databases").State(); got != Open {
		t.Fatalf("breaker = %v, want open", got)
	}
	seen := calls.Load()

	_, err = c.Databases(context.Background())
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if got := calls.Load(); got != seen {
		t.Fatalf("open breaker let %d calls through", got-seen)
	}
	if got := c.Stats().BreakerRejects; got == 0 {
		t.Fatal("BreakerRejects not counted")
	}
	if got := c.Breaker("qos").State(); got != Closed {
		t.Fatalf("qos breaker = %v; endpoint isolation broken", got)
	}
}

// TestRegisterConflictResolved: a 409 on register (the aftermath of a
// lost response to an earlier, successful registration) resolves by
// fetching the device.
func TestRegisterConflictResolved(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/devices", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"fleet: device already registered"}`, http.StatusConflict)
	})
	mux.HandleFunc("GET /v1/devices/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"id":%q,"database":"red","point":3}`, r.PathValue("id"))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL})
	dev, err := c.Register(context.Background(), fleet.RegisterRequest{ID: "dev-1", Database: "red"})
	if err != nil {
		t.Fatal(err)
	}
	if dev.ID != "dev-1" || dev.Point != 3 {
		t.Fatalf("resolved device = %+v", dev)
	}
}

// TestQoSRetryDegraded: with RetryDegraded on, a transiently degraded
// answer is retried until a real decision lands.
func TestQoSRetryDegraded(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if calls.Add(1) <= 2 {
			fmt.Fprint(w, `{"device":"d","seq":1,"from":2,"to":2,"degraded":true}`)
			return
		}
		fmt.Fprint(w, `{"device":"d","seq":1,"from":2,"to":5,"reconfigured":true}`)
	}))
	defer ts.Close()

	c := New(Config{
		BaseURL:       ts.URL,
		MaxAttempts:   4,
		Backoff:       Backoff{Base: time.Millisecond, Max: time.Millisecond},
		RetryDegraded: true,
	})
	dec, err := c.QoS(context.Background(), "d", 1, fleet.QoSSpecJSON{SMaxMs: 10, FMin: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Degraded || dec.To != 5 {
		t.Fatalf("decision = %+v, want the real to=5 answer", dec)
	}
	if got := c.Stats().DegradedRetries; got != 2 {
		t.Fatalf("DegradedRetries = %d, want 2", got)
	}
}

// TestQoSPersistentDegradedReturnsFallback: when the fault never
// clears, the degraded answer is still returned (it is the service's
// contract-honouring fallback) alongside ErrDegraded.
func TestQoSPersistentDegradedReturnsFallback(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"device":"d","seq":1,"from":2,"to":2,"degraded":true}`)
	}))
	defer ts.Close()

	c := New(Config{
		BaseURL:       ts.URL,
		MaxAttempts:   3,
		Backoff:       Backoff{Base: time.Millisecond, Max: time.Millisecond},
		RetryDegraded: true,
	})
	dec, err := c.QoS(context.Background(), "d", 1, fleet.QoSSpecJSON{SMaxMs: 10, FMin: 0.9})
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("err = %v, want ErrDegraded", err)
	}
	if dec == nil || !dec.Degraded {
		t.Fatalf("decision = %+v, want the degraded fallback", dec)
	}
}

// TestCallerContextBoundsRetries: the caller's deadline cuts the
// retry loop short during a backoff sleep.
func TestCallerContextBoundsRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := New(Config{
		BaseURL:     ts.URL,
		MaxAttempts: 100,
		Backoff:     Backoff{Base: time.Second, Max: time.Second},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Databases(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retry loop ignored the caller's deadline (%v)", elapsed)
	}
}

// TestRetriesCarryOneTraceID: retries are the same logical call, so
// every attempt — including the one that finally succeeds — must
// carry the same X-Clr-Trace-Id header. A context-supplied trace ID
// is propagated verbatim; without one the client mints a valid ID at
// the call root and reuses it across the backoff.
func TestRetriesCarryOneTraceID(t *testing.T) {
	var mu sync.Mutex
	var headers []string
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		headers = append(headers, r.Header.Get(obs.TraceHeader))
		mu.Unlock()
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `[{"name":"red","points":4}]`)
	}))
	defer ts.Close()

	newClient := func() *Client {
		calls.Store(0)
		mu.Lock()
		headers = nil
		mu.Unlock()
		return New(Config{
			BaseURL:     ts.URL,
			MaxAttempts: 4,
			Backoff:     Backoff{Base: time.Millisecond, Max: time.Millisecond},
			JitterSeed:  42,
		})
	}

	t.Run("context trace propagated across attempts", func(t *testing.T) {
		c := newClient()
		const want = "feedfacefeedface"
		ctx := obs.WithTrace(context.Background(), obs.TraceID(want))
		if _, err := c.Databases(ctx); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(headers) != 3 {
			t.Fatalf("server saw %d attempts, want 3", len(headers))
		}
		for i, h := range headers {
			if h != want {
				t.Fatalf("attempt %d carried trace %q, want the context's %q", i, h, want)
			}
		}
	})

	t.Run("minted trace stable across attempts", func(t *testing.T) {
		c := newClient()
		if _, err := c.Databases(context.Background()); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(headers) != 3 {
			t.Fatalf("server saw %d attempts, want 3", len(headers))
		}
		if !obs.TraceID(headers[0]).IsValid() {
			t.Fatalf("minted trace %q is not a valid trace ID", headers[0])
		}
		for i, h := range headers {
			if h != headers[0] {
				t.Fatalf("attempt %d carried trace %q, want the call's %q", i, h, headers[0])
			}
		}
	})

	t.Run("distinct calls get distinct minted traces", func(t *testing.T) {
		c := newClient()
		if _, err := c.Databases(context.Background()); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		first := headers[len(headers)-1]
		mu.Unlock()
		if _, err := c.Databases(context.Background()); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		second := headers[len(headers)-1]
		mu.Unlock()
		if first == second {
			t.Fatalf("two calls shared minted trace %q", first)
		}
	})
}

// TestReadBodyPresizeBound names readBody's pre-size bound: a response
// whose Content-Length is below maxPresize gets its buffer sized once,
// with the spare byte that meets EOF; a length at or above the bound
// sizes nothing up front; an unknown length reads to EOF. Every row
// returns the body's bytes.
func TestReadBodyPresizeBound(t *testing.T) {
	body := bytes.Repeat([]byte("clrb"), 250)
	tests := []struct {
		name    string
		size    int64
		wantCap func(c int) bool
	}{
		{"below the bound", int64(len(body)), func(c int) bool { return c == len(body)+1 }},
		{"at the bound", maxPresize, func(c int) bool { return c < maxPresize }},
		{"unknown length", -1, func(c int) bool { return c >= len(body) }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := readBody(iotest.HalfReader(bytes.NewReader(body)), tc.size, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, body) {
				t.Fatalf("read %d bytes, want the %d-byte body", len(got), len(body))
			}
			if !tc.wantCap(cap(got)) {
				t.Errorf("buffer capacity %d for declared size %d", cap(got), tc.size)
			}
		})
	}
}
