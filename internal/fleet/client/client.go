package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clrdse/internal/cluster"
	"clrdse/internal/fleet"
	"clrdse/internal/obs"
	"clrdse/internal/rng"
)

// ErrBreakerOpen reports a call rejected fast because the endpoint's
// circuit breaker is open.
var ErrBreakerOpen = errors.New("client: circuit breaker open")

// ErrDegraded reports a decision the server answered with its
// degraded last-known-good fallback after retries were exhausted (only
// surfaced when Config.RetryDegraded is set).
var ErrDegraded = errors.New("client: decision degraded")

// APIError is a non-2xx response from the service.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the service's error body.
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: status %d: %s", e.Status, e.Message)
}

// redirectError is an attempt outcome, not a failure: the node
// answered 307 + X-Clr-Redirect because another node owns the device.
// The call re-resolves to the named owner without spending a retry or
// a breaker failure.
type redirectError struct{ target string }

func (e *redirectError) Error() string {
	return "client: redirected to owning node " + e.target
}

// maxRedirects bounds redirect-following per attempt; a healthy
// cluster answers in one hop, so more than a few means split views.
const maxRedirects = 4

// Config configures a resilient fleet client.
type Config struct {
	// BaseURL locates the server, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Targets lists the cluster nodes' base URLs. When set, the client
	// is ring-aware: it mirrors the cluster's consistent-hash ring
	// (fetched from any target's /v1/cluster/ring) and sends each
	// device's calls straight to the owning node, falling back to
	// redirect/forward only while its view is stale. BaseURL may be
	// empty; the first target is then the default for non-device calls.
	Targets []string
	// Transport is the base HTTP transport (nil selects a clone of
	// http.DefaultTransport); the chaos layer wraps here.
	Transport http.RoundTripper
	// MaxAttempts bounds tries per call, first attempt included
	// (0 selects 4).
	MaxAttempts int
	// AttemptTimeout is the per-attempt deadline (0 selects 5s); the
	// caller's ctx bounds the whole call including backoff sleeps.
	AttemptTimeout time.Duration
	// Backoff paces retries (zero value selects DefaultBackoff).
	Backoff Backoff
	// JitterSeed makes the jitter stream deterministic for tests and
	// reproducible load runs.
	JitterSeed int64
	// BreakerThreshold is the consecutive-failure count that opens an
	// endpoint's breaker (0 selects 8).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects calls
	// before probing (0 selects 2s).
	BreakerCooldown time.Duration
	// RetryDegraded treats degraded decisions as retryable failures:
	// the client re-sends the same sequence number, betting the fault
	// is transient. Off, a degraded decision is a valid answer.
	RetryDegraded bool
	// Binary puts batch calls on the compact binary codec
	// (application/x-clr-bin) instead of JSON. The results are
	// identical; only the wire bytes change.
	Binary bool
}

// Stats counts the client's resilience activity.
type Stats struct {
	// Retries counts re-attempts (attempts beyond each call's first).
	Retries int64
	// BreakerRejects counts calls rejected fast by an open breaker.
	BreakerRejects int64
	// DegradedRetries counts degraded answers that were retried.
	DegradedRetries int64
	// Redirects counts 307 + X-Clr-Redirect hops followed (cluster
	// mode; these are re-resolutions, not retries).
	Redirects int64
	// BreakerOpens counts breaker open transitions across endpoints.
	BreakerOpens uint64
}

// Client is a resilient fleet API client. It is safe for concurrent
// use; one client should be shared per target server so the breakers
// see all traffic.
type Client struct {
	base        string
	targets     []string
	http        *http.Client
	maxAttempts int
	attemptTO   time.Duration
	backoff     Backoff
	retryDeg    bool
	binary      bool

	jmu sync.Mutex
	src *rng.Source

	// minter issues trace IDs for calls whose context carries none —
	// the client is then the trace edge for the call.
	minter *obs.Minter

	// Breakers are per (endpoint, node): a dead node's failures must
	// not open the breaker for the healthy nodes serving the same
	// endpoint. Keys are "endpoint|baseURL", created lazily.
	bmu         sync.Mutex
	breakers    map[string]*Breaker
	brThreshold int
	brCooldown  time.Duration

	// Ring state (cluster mode): the client's mirror of the cluster's
	// ownership map, plus per-device owner hints learned from
	// redirects while the mirror is stale.
	ringMu  sync.Mutex
	ring    *cluster.Ring
	nodeURL map[string]string
	hints   map[string]string

	// nodeN counts answers per serving node (X-Clr-Node), feeding the
	// load generator's per-node throughput report.
	nodeMu sync.Mutex
	nodeN  map[string]int64

	retries    atomic.Int64
	rejects    atomic.Int64
	redirects  atomic.Int64
	degRetries atomic.Int64
}

// endpoints are the breaker domains: one wedged endpoint must not trip
// the others.
var endpoints = []string{"register", "qos", "batch", "device", "databases", "deregister"}

// New builds a client for the configuration.
func New(cfg Config) *Client {
	tr := cfg.Transport
	if tr == nil {
		tr = http.DefaultTransport.(*http.Transport).Clone()
	}
	c := &Client{
		base:        strings.TrimRight(cfg.BaseURL, "/"),
		maxAttempts: cfg.MaxAttempts,
		attemptTO:   cfg.AttemptTimeout,
		backoff:     cfg.Backoff,
		retryDeg:    cfg.RetryDegraded,
		binary:      cfg.Binary,
		src:         rng.New(cfg.JitterSeed),
		minter:      obs.NewMinter(cfg.JitterSeed),
		breakers:    make(map[string]*Breaker, len(endpoints)),
		brThreshold: cfg.BreakerThreshold,
		brCooldown:  cfg.BreakerCooldown,
		hints:       make(map[string]string),
		nodeN:       make(map[string]int64),
	}
	// Cluster redirects (307 + X-Clr-Redirect) are handled by the
	// client itself so they can re-resolve the owner instead of
	// spending retry or breaker budget.
	c.http = &http.Client{
		Transport: tr,
		CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
	for _, t := range cfg.Targets {
		c.targets = append(c.targets, strings.TrimRight(t, "/"))
	}
	if c.base == "" && len(c.targets) > 0 {
		c.base = c.targets[0]
	}
	if c.maxAttempts <= 0 {
		c.maxAttempts = 4
	}
	if c.attemptTO <= 0 {
		c.attemptTO = 5 * time.Second
	}
	if c.backoff == (Backoff{}) {
		c.backoff = DefaultBackoff()
	}
	for _, ep := range endpoints {
		c.breakers[ep+"|"+c.base] = NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, nil)
	}
	return c
}

// Stats snapshots the client's resilience counters.
func (c *Client) Stats() Stats {
	s := Stats{
		Retries:         c.retries.Load(),
		BreakerRejects:  c.rejects.Load(),
		DegradedRetries: c.degRetries.Load(),
		Redirects:       c.redirects.Load(),
	}
	c.bmu.Lock()
	defer c.bmu.Unlock()
	for _, b := range c.breakers {
		s.BreakerOpens += b.Opens()
	}
	return s
}

// Breaker exposes an endpoint's breaker ("register", "qos", "batch",
// "device", "databases", "deregister") at the default target. Cluster
// mode keys breakers per node.
func (c *Client) Breaker(endpoint string) *Breaker { return c.breakerFor(endpoint, c.base) }

// breakerFor returns (creating on first use) the breaker guarding one
// endpoint at one node.
func (c *Client) breakerFor(endpoint, base string) *Breaker {
	key := endpoint + "|" + base
	c.bmu.Lock()
	defer c.bmu.Unlock()
	b, ok := c.breakers[key]
	if !ok {
		b = NewBreaker(c.brThreshold, c.brCooldown, nil)
		c.breakers[key] = b
	}
	return b
}

// NodesSeen snapshots how many answers each cluster node served
// (attributed by the X-Clr-Node response header; empty outside
// cluster mode).
func (c *Client) NodesSeen() map[string]int64 {
	c.nodeMu.Lock()
	defer c.nodeMu.Unlock()
	out := make(map[string]int64, len(c.nodeN))
	for k, v := range c.nodeN {
		out[k] = v
	}
	return out
}

// RefreshRing refetches the cluster's ring document from the first
// reachable target and rebuilds the client's ownership mirror. Safe
// to call concurrently; a failure leaves the previous mirror (or the
// default-target fallback) in place.
func (c *Client) RefreshRing(ctx context.Context) error {
	if len(c.targets) == 0 {
		return fmt.Errorf("client: no cluster targets configured")
	}
	var lastErr error
	for _, t := range c.targets {
		doc, err := c.fetchRing(ctx, t)
		if err != nil {
			lastErr = err
			continue
		}
		var members []string
		urls := make(map[string]string, len(doc.Members))
		for _, m := range doc.Members {
			urls[m.ID] = strings.TrimRight(m.URL, "/")
			if m.Alive {
				members = append(members, m.ID)
			}
		}
		ring, err := cluster.NewRing(members, doc.VNodes)
		if err != nil {
			lastErr = err
			continue
		}
		c.ringMu.Lock()
		c.ring, c.nodeURL = ring, urls
		// The fresh mirror supersedes every redirect-learned hint.
		c.hints = make(map[string]string)
		c.ringMu.Unlock()
		return nil
	}
	return fmt.Errorf("client: no target served the ring: %w", lastErr)
}

// fetchRing GETs one target's ring document.
func (c *Client) fetchRing(ctx context.Context, target string) (*cluster.RingJSON, error) {
	actx, cancel := context.WithTimeout(ctx, c.attemptTO)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, target+"/v1/cluster/ring", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("client: ring fetch from %s: status %d", target, resp.StatusCode)
	}
	var doc cluster.RingJSON
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&doc); err != nil {
		return nil, fmt.Errorf("client: decoding ring document: %w", err)
	}
	return &doc, nil
}

// routeBase resolves where a call should go: a redirect-learned hint
// for the device, else the ring mirror's owner, else the default
// target (whose node will forward or redirect as its mode dictates).
func (c *Client) routeBase(deviceID string) string {
	if deviceID == "" || len(c.targets) == 0 {
		return c.base
	}
	c.ringMu.Lock()
	defer c.ringMu.Unlock()
	if h, ok := c.hints[deviceID]; ok {
		return h
	}
	if c.ring != nil {
		if u, ok := c.nodeURL[c.ring.Owner(deviceID)]; ok {
			return u
		}
	}
	return c.base
}

// noteRedirect records the owner a redirect revealed and refreshes the
// ring mirror (best effort — a redirect means the mirror is stale).
func (c *Client) noteRedirect(ctx context.Context, deviceID, target string) {
	if len(c.targets) > 0 {
		//lint:allow errdrop best-effort mirror refresh; the redirect hint below routes correctly either way
		_ = c.RefreshRing(ctx)
	}
	// The hint lands after the refresh so it survives it: on a split
	// view the redirecting node knows this device's owner better than
	// the mirror does. The next successful refresh clears it.
	if deviceID != "" {
		c.ringMu.Lock()
		c.hints[deviceID] = target
		c.ringMu.Unlock()
	}
}

// retryable classifies a failure: transport errors, 5xx and timeout-ish
// statuses are worth retrying; other 4xx are the caller's bug and
// permanent.
func retryable(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status >= 500 ||
			apiErr.Status == http.StatusRequestTimeout ||
			apiErr.Status == http.StatusTooManyRequests
	}
	return true // transport, decode, breaker, degraded
}

// call is one logical API call for doCall: a pre-encoded payload with
// its content type, retry/redirect routing parameters, and hooks for
// decoding and validating the response.
type call struct {
	endpoint string
	method   string
	path     string
	// deviceID, when non-empty, routes the call through the ring
	// mirror to the owning node.
	deviceID string
	// contentType labels payload; empty with a nil payload.
	contentType string
	payload     []byte
	wantStatus  int
	// handle decodes a successful response body. It runs once per
	// attempt, so it must overwrite its target, never merge into it;
	// its error is a retryable failure (the decision may have been
	// made server-side — the retry answers from the replay cache).
	handle func(data []byte) error
	// accept validates the decoded response; its error counts as a
	// retryable failure.
	accept func() error
}

// do runs one JSON API call: body is marshalled, a successful response
// is unmarshalled into out (out is zeroed per attempt so a field an
// earlier attempt decoded cannot leak through an omitted key). The
// retry/redirect/breaker machinery lives in doCall.
func (c *Client) do(ctx context.Context, endpoint, method, path, deviceID string, body, out any, wantStatus int) error {
	cl := call{
		endpoint:   endpoint,
		method:     method,
		path:       path,
		deviceID:   deviceID,
		wantStatus: wantStatus,
	}
	if body != nil {
		var err error
		if cl.payload, err = json.Marshal(body); err != nil {
			return err
		}
		cl.contentType = "application/json"
	}
	if out != nil {
		cl.handle = func(data []byte) error {
			// out is shared across attempts; zero it first so a field an
			// earlier attempt decoded cannot leak into this attempt's
			// answer through an omitted JSON key.
			reflect.ValueOf(out).Elem().SetZero()
			if err := json.Unmarshal(data, out); err != nil {
				return fmt.Errorf("client: decoding response: %w", err)
			}
			return nil
		}
	}
	return c.doCall(ctx, &cl)
}

// doCall runs one API call with retries, backoff, per-attempt
// deadlines and the (endpoint, node) breaker.
//
// A 307 + X-Clr-Redirect answer is neither a retry nor a breaker
// failure: the redirecting node is healthy, it just no longer owns
// the device. The call re-resolves to the named owner immediately
// (bounded by maxRedirects per attempt) and refreshes the ring mirror
// so later calls route directly.
//
// The call's trace ID is resolved exactly once, before the first
// attempt, and every attempt carries it in X-Clr-Trace-Id: a retry is
// the same logical call, so the server's request log and decision
// journal correlate all attempts (and the eventual replay-cache
// answer) under one ID. A context without a trace makes this call the
// trace edge, so minting here is the root, not a mid-stack re-mint
// (tracectx's adopt-first rule: TraceIDFrom before Mint).
func (c *Client) doCall(ctx context.Context, cl *call) error {
	trace := obs.TraceIDFrom(ctx)
	if trace == "" {
		trace = c.minter.Mint()
	}
	var lastErr error
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			delay := c.nextDelay(attempt - 1)
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return fmt.Errorf("client: %s: %w (last error: %v)", cl.endpoint, ctx.Err(), lastErr)
			}
			// A failed attempt in cluster mode often means the route is
			// stale (the owner died or the device moved); refetch the
			// ring so this retry resolves against live membership.
			if len(c.targets) > 0 && cl.deviceID != "" {
				//lint:allow errdrop best-effort refetch between retries; a stale ring only costs one more forwarded hop
				_ = c.RefreshRing(ctx)
			}
		}
		// Resolve per attempt: a redirect on the previous attempt (or a
		// concurrent call's) may have moved the device's route.
		base := c.routeBase(cl.deviceID)
		var err error
		for hop := 0; ; hop++ {
			err = c.attempt(ctx, c.breakerFor(cl.endpoint, base), trace, base, cl)
			var rd *redirectError
			if !errors.As(err, &rd) {
				break
			}
			if hop >= maxRedirects {
				err = fmt.Errorf("client: %s: %d redirects without an owner settling", cl.endpoint, hop+1)
				break
			}
			c.redirects.Add(1)
			base = rd.target
			c.noteRedirect(ctx, cl.deviceID, rd.target)
		}
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable(err) {
			return err
		}
	}
	return fmt.Errorf("client: %s: %d attempts exhausted: %w", cl.endpoint, c.maxAttempts, lastErr)
}

// attempt is one try of a call, stamped with the call's trace ID.
func (c *Client) attempt(ctx context.Context, br *Breaker, trace obs.TraceID, base string, cl *call) error {
	if !br.Allow() {
		c.rejects.Add(1)
		return ErrBreakerOpen
	}
	actx, cancel := context.WithTimeout(ctx, c.attemptTO)
	defer cancel()
	var rd io.Reader
	if cl.payload != nil {
		rd = bytes.NewReader(cl.payload)
	}
	req, err := http.NewRequestWithContext(actx, cl.method, base+cl.path, rd)
	if err != nil {
		br.Failure()
		return err
	}
	if cl.contentType != "" {
		req.Header.Set("Content-Type", cl.contentType)
	}
	req.Header.Set(obs.TraceHeader, string(trace))
	resp, err := c.http.Do(req)
	if err != nil {
		br.Failure()
		return err
	}
	buf := readBufPool.Get().(*[]byte)
	data, err := readBody(resp.Body, resp.ContentLength, (*buf)[:0])
	//lint:allow errdrop close after a full read; drain errors already surfaced via readBody
	resp.Body.Close()
	if err != nil {
		err = fmt.Errorf("client: reading response: %w", err)
		br.Failure()
	} else {
		err = c.answer(br, cl, resp, data)
	}
	*buf = data[:0]
	readBufPool.Put(buf)
	return err
}

// readBufPool recycles response read buffers. Copy-out rule: nothing
// may keep a reference into a body once its attempt returns, so every
// call.handle decoder copies what it keeps (encoding/json and the
// fleet codecs do).
var readBufPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPresize bounds how far a response's Content-Length alone may
// grow a read buffer before any byte of the body arrives.
const maxPresize = 16 << 20

// readBody reads r to EOF, appending to buf. A known content length
// sizes the buffer once, with a spare byte so the read that meets EOF
// does not grow it.
func readBody(r io.Reader, size int64, buf []byte) ([]byte, error) {
	if size >= 0 && size < maxPresize && int(size) >= cap(buf) {
		buf = make([]byte, 0, size+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// answer handles one attempt's response: a redirect, an error status,
// or a body for cl.handle and cl.accept. data is only valid until the
// attempt returns.
func (c *Client) answer(br *Breaker, cl *call, resp *http.Response, data []byte) error {
	if resp.StatusCode == http.StatusTemporaryRedirect {
		if tgt := resp.Header.Get(cluster.RedirectHeader); tgt != "" {
			// The node answered coherently — it just doesn't own the
			// device. Healthy for breaker purposes.
			br.Success()
			return &redirectError{target: strings.TrimRight(tgt, "/")}
		}
	}
	if resp.StatusCode != cl.wantStatus {
		var apiErr fleet.ErrorJSON
		//lint:allow errdrop best-effort decode of the error body; a non-JSON body falls through to the status-code error
		_ = json.Unmarshal(data, &apiErr)
		err := &APIError{Status: resp.StatusCode, Message: apiErr.Error}
		if retryable(err) {
			br.Failure()
		} else {
			// A 4xx means the endpoint answered coherently: the call is
			// wrong, the service is healthy.
			br.Success()
		}
		return err
	}
	if cl.handle != nil {
		if err := cl.handle(data); err != nil {
			// Truncated or mangled body: the decision may have been
			// made server-side; the retry is answered from the replay
			// cache, so re-sending is safe.
			br.Failure()
			return err
		}
	}
	if cl.accept != nil {
		if err := cl.accept(); err != nil {
			br.Failure()
			return err
		}
	}
	if node := resp.Header.Get(cluster.NodeHeader); node != "" {
		c.nodeMu.Lock()
		c.nodeN[node]++
		c.nodeMu.Unlock()
	}
	br.Success()
	return nil
}

// nextDelay computes the backoff for retry k, drawing jitter from the
// shared source under a lock (rng.Source is not concurrency-safe).
func (c *Client) nextDelay(k int) time.Duration {
	c.jmu.Lock()
	defer c.jmu.Unlock()
	return c.backoff.Delay(k, c.src)
}

// Register registers a device. A Conflict response is treated as
// "already registered" — the typical aftermath of a retried
// registration whose first response was lost — and resolved by
// fetching the device's current state.
func (c *Client) Register(ctx context.Context, req fleet.RegisterRequest) (*fleet.DeviceJSON, error) {
	var dev fleet.DeviceJSON
	err := c.do(ctx, "register", http.MethodPost, "/v1/devices", req.ID, req, &dev, http.StatusCreated)
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.Status == http.StatusConflict {
		return c.Device(ctx, req.ID)
	}
	if err != nil {
		return nil, err
	}
	return &dev, nil
}

// devicePath is the path of one device's resource; the ID is escaped
// so that every registrable ID addresses its own device.
func devicePath(id string) string { return "/v1/devices/" + url.PathEscape(id) }

// QoS submits one QoS event. seq, when positive, identifies the event
// for exactly-once processing: retries reuse it and the server answers
// replays from its decision cache. With RetryDegraded set, degraded
// answers are retried and the last one is returned with ErrDegraded if
// the fault never cleared.
//
// The exchange runs on the fleet's hand-written JSON codec; the wire
// bytes are those encoding/json would write and read.
func (c *Client) QoS(ctx context.Context, id string, seq uint64, spec fleet.QoSSpecJSON) (*fleet.DecisionJSON, error) {
	var dec fleet.DecisionJSON
	payload, err := fleet.AppendQoSRequest(nil, fleet.QoSRequest{QoSSpecJSON: spec, Seq: seq})
	if err != nil {
		return nil, err
	}
	cl := call{
		endpoint:    "qos",
		method:      http.MethodPost,
		path:        devicePath(id) + "/qos",
		deviceID:    id,
		contentType: "application/json",
		payload:     payload,
		wantStatus:  http.StatusOK,
		// DecodeDecision zeroes dec first, so a field an earlier
		// attempt decoded cannot leak into this one.
		handle: func(data []byte) error {
			if err := fleet.DecodeDecision(data, &dec); err != nil {
				return fmt.Errorf("client: decoding response: %w", err)
			}
			return nil
		},
	}
	if c.retryDeg {
		cl.accept = func() error {
			if dec.Degraded {
				c.degRetries.Add(1)
				return ErrDegraded
			}
			return nil
		}
	}
	err = c.doCall(ctx, &cl)
	if err != nil && c.retryDeg && errors.Is(err, ErrDegraded) && dec.Degraded {
		// Retries exhausted on a persistent fault: the degraded answer
		// is still the service's contract-honouring fallback.
		return &dec, fmt.Errorf("%w (seq %d)", ErrDegraded, seq)
	}
	if err != nil {
		return nil, err
	}
	return &dec, nil
}

// Device fetches a device snapshot.
func (c *Client) Device(ctx context.Context, id string) (*fleet.DeviceJSON, error) {
	var dev fleet.DeviceJSON
	if err := c.do(ctx, "device", http.MethodGet, devicePath(id), id, nil, &dev, http.StatusOK); err != nil {
		return nil, err
	}
	return &dev, nil
}

// Databases lists the server's decision bases.
func (c *Client) Databases(ctx context.Context) ([]fleet.DatabaseJSON, error) {
	var dbs []fleet.DatabaseJSON
	if err := c.do(ctx, "databases", http.MethodGet, "/v1/databases", "", nil, &dbs, http.StatusOK); err != nil {
		return nil, err
	}
	return dbs, nil
}

// Deregister removes a device.
func (c *Client) Deregister(ctx context.Context, id string) error {
	return c.do(ctx, "deregister", http.MethodDelete, devicePath(id), id, nil, nil, http.StatusNoContent)
}

// payloadPool recycles batch payload buffers: a steady submitter
// re-encodes each flush into the same backing array instead of
// allocating a fresh request body per batch.
var payloadPool = sync.Pool{New: func() any { return new([]byte) }}

// sliceWriter appends into a caller-owned byte slice, letting
// json.Encoder reuse pooled capacity.
type sliceWriter struct{ b *[]byte }

func (w sliceWriter) Write(p []byte) (int, error) {
	*w.b = append(*w.b, p...)
	return len(p), nil
}

// DecideBatch submits many QoS events — possibly for many devices —
// in one request and returns the per-event results, index-aligned
// with events. A per-event failure (unknown device, stale sequence)
// lands in its own slot's Status/Error; the returned error covers
// only whole-call failures (transport, breaker, non-200 answer).
// Retries re-send the entire batch: each event's Seq rides the
// server's exactly-once replay cache, so a re-sent batch answers
// identically. With Config.Binary the batch travels on the compact
// binary codec; the results are the same either way.
//
// In cluster mode the call routes to the node owning the first
// event's device; a mixed-owner batch is re-bucketed by that node's
// edge, so grouping events per owner (as Batcher does) keeps the
// whole batch single-hop.
func (c *Client) DecideBatch(ctx context.Context, events []fleet.BatchEventJSON) ([]fleet.BatchResultJSON, error) {
	if len(events) == 0 {
		return nil, nil
	}
	buf := payloadPool.Get().(*[]byte)
	cl := call{
		endpoint:   "batch",
		method:     http.MethodPost,
		path:       "/v1/devices:decide-batch",
		deviceID:   events[0].Device,
		wantStatus: http.StatusOK,
	}
	if c.binary {
		cl.contentType = fleet.BinContentType
		var err error
		if cl.payload, err = fleet.AppendBatchRequest((*buf)[:0], events); err != nil {
			payloadPool.Put(buf)
			return nil, err
		}
	} else {
		cl.contentType = "application/json"
		cl.payload = (*buf)[:0]
		if err := json.NewEncoder(sliceWriter{&cl.payload}).Encode(fleet.BatchRequestJSON{Events: events}); err != nil {
			payloadPool.Put(buf)
			return nil, err
		}
	}
	var results []fleet.BatchResultJSON
	if c.binary {
		// One result per event: the decoder fills this without regrowing.
		results = make([]fleet.BatchResultJSON, 0, len(events))
	}
	cl.handle = func(data []byte) error {
		var err error
		if c.binary {
			results, err = fleet.DecodeBatchResponse(data, results[:0])
		} else {
			var br fleet.BatchResponseJSON
			if err = json.Unmarshal(data, &br); err == nil {
				results = br.Results
			}
		}
		if err != nil {
			return fmt.Errorf("client: decoding batch response: %w", err)
		}
		if len(results) != len(events) {
			return fmt.Errorf("client: batch answered %d results for %d events", len(results), len(events))
		}
		return nil
	}
	err := c.doCall(ctx, &cl)
	*buf = cl.payload[:0]
	payloadPool.Put(buf)
	if err != nil {
		return nil, err
	}
	return results, nil
}
