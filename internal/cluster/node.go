package cluster

// Node is the cluster face of one clrserved process: a request router
// in front of the fleet HTTP handler. Every device-scoped request is
// mapped through the ring; requests for devices this node owns fall
// through to the local registry, everything else is forwarded to the
// owner (proxy mode) or answered with a 307 + X-Clr-Redirect
// (redirect mode). Membership is a static peer list with a
// health-driven suspicion overlay: the optional prober flips peers
// dead after consecutive /healthz failures and alive again on
// recovery, and every membership flip triggers a rebalance that hands
// migrated devices to their new owners as journal-replay bundles.

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clrdse/internal/fleet"
	"clrdse/internal/fleet/metrics"
	"clrdse/internal/obs"
)

// Cluster wire headers.
const (
	// NodeHeader names the node that actually served a response, so a
	// client (or the clrload per-node report) can attribute answers.
	NodeHeader = "X-Clr-Node"
	// RedirectHeader carries the owning node's base URL on a 307, so a
	// ring-aware client re-resolves instead of burning retry or
	// breaker budget against a node that no longer owns the device.
	RedirectHeader = "X-Clr-Redirect"
	// ForwardedHeader marks a request that already took its one
	// forward hop; the receiver serves it locally even if its own ring
	// disagrees, so transiently split views cannot loop a request.
	ForwardedHeader = "X-Clr-Forwarded"
	// TokenHeader carries the shared cluster secret on node-to-node
	// and admin requests (handoff, membership) when Config.AuthToken
	// is set.
	TokenHeader = "X-Clr-Cluster-Token"
)

// Peer is one static cluster member.
type Peer struct {
	// ID is the node's stable name ("node-0"); it is what the ring
	// hashes, so it must not change across restarts.
	ID string `json:"id"`
	// URL is the node's base URL ("http://10.0.0.7:8080").
	URL string `json:"url"`
}

// Config configures a cluster node.
type Config struct {
	// Self is this node's ID; it must appear in Peers.
	Self string
	// Peers is the full static membership, self included.
	Peers []Peer
	// VNodes is the virtual-node count per member (0 selects
	// DefaultVNodes). Every node and every ring-aware client must use
	// the same value; it is published on /v1/cluster/ring.
	VNodes int
	// Redirect answers non-owned device requests with 307 +
	// X-Clr-Redirect instead of proxy-forwarding them.
	Redirect bool
	// TraceSeed seeds the trace minter for requests that arrive at
	// this edge without an X-Clr-Trace-Id.
	TraceSeed int64
	// ProbeInterval enables the health prober: every interval each
	// peer's /healthz is checked, and SuspectAfter consecutive
	// failures mark it dead (one success marks it alive again).
	// 0 disables probing — membership then changes only through
	// SetStates / POST /v1/cluster/membership.
	ProbeInterval time.Duration
	// SuspectAfter is the consecutive probe-failure threshold
	// (0 selects 3).
	SuspectAfter int
	// HTTPTimeout bounds forward, handoff and probe requests
	// (0 selects 10s).
	HTTPTimeout time.Duration
	// MaxBodyBytes caps the buffered request body for routing and
	// forwarding (0 selects 1 MiB, matching the fleet server's cap).
	MaxBodyBytes int64
	// AuthToken, when set, gates the node-to-node and admin endpoints
	// (POST /v1/cluster/handoff, /v1/cluster/membership): requests
	// must carry it in the X-Clr-Cluster-Token header, and handoff
	// pushes send it. Every member must share the same value. Empty
	// leaves the endpoints open — acceptable only when the listener
	// is unreachable from outside the cluster network.
	AuthToken string
	// Logger receives structured cluster logs (nil selects
	// slog.Default()).
	Logger *slog.Logger
}

// Node is one cluster member's routing, membership and handoff state.
type Node struct {
	self     string
	vnodes   int
	redirect bool
	maxBody  int64
	token    string
	reg      *fleet.Registry
	httpc    *http.Client
	minter   *obs.Minter
	log      *slog.Logger
	suspect  int

	// draining flips on Leave and never clears: the drain ring no
	// longer contains self, so the router serves a device locally only
	// while it is still registered here (awaiting its handoff) and
	// forwards it to the new owner afterwards.
	draining atomic.Bool

	mu    sync.Mutex
	urls  map[string]string
	alive map[string]bool
	ring  *Ring // over the alive members only

	forwards    *metrics.Counter
	redirects   *metrics.Counter
	forwardErrs *metrics.Counter
	handoffOut  *metrics.Counter
	handoffIn   *metrics.Counter
	handoffDups *metrics.Counter
	handoffErrs *metrics.Counter
	rebalances  *metrics.Counter
	ringVersion *metrics.Gauge
	nodesAlive  *metrics.Gauge
}

// New builds the cluster node in front of the fleet server. All peers
// start alive; the prober (Run) or explicit SetStates calls move them.
func New(cfg Config, srv *fleet.Server) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: empty self node ID")
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 3
	}
	if cfg.HTTPTimeout <= 0 {
		cfg.HTTPTimeout = 10 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	n := &Node{
		self:     cfg.Self,
		vnodes:   cfg.VNodes,
		redirect: cfg.Redirect,
		maxBody:  cfg.MaxBodyBytes,
		token:    cfg.AuthToken,
		reg:      srv.Registry(),
		httpc:    &http.Client{Timeout: cfg.HTTPTimeout},
		minter:   obs.NewMinter(cfg.TraceSeed),
		log:      slog.New(obs.NewHandler(cfg.Logger.Handler())),
		suspect:  cfg.SuspectAfter,
		urls:     make(map[string]string, len(cfg.Peers)),
		alive:    make(map[string]bool, len(cfg.Peers)),
	}
	if n.vnodes <= 0 {
		n.vnodes = DefaultVNodes
	}
	for _, p := range cfg.Peers {
		if p.ID == "" || p.URL == "" {
			return nil, fmt.Errorf("cluster: peer with empty ID or URL (%+v)", p)
		}
		if _, dup := n.urls[p.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer ID %q", p.ID)
		}
		n.urls[p.ID] = strings.TrimRight(p.URL, "/")
		n.alive[p.ID] = true
	}
	if _, ok := n.urls[n.self]; !ok {
		return nil, fmt.Errorf("cluster: self %q not in peer list", n.self)
	}
	ring, err := NewRing(n.aliveMembersLocked(), n.vnodes)
	if err != nil {
		return nil, err
	}
	n.ring = ring

	met := srv.Registry().Metrics()
	n.forwards = met.Counter("clr_cluster_forwards_total",
		"Device requests proxied to their owning node.")
	n.redirects = met.Counter("clr_cluster_redirects_total",
		"Device requests answered with 307 + X-Clr-Redirect to the owning node.")
	n.forwardErrs = met.Counter("clr_cluster_forward_errors_total",
		"Forward hops that failed at the transport (answered 502).")
	n.handoffOut = met.Counter("clr_cluster_handoff_devices_total",
		"Devices handed across nodes on rebalance.", "direction", "out")
	n.handoffIn = met.Counter("clr_cluster_handoff_devices_total",
		"Devices handed across nodes on rebalance.", "direction", "in")
	n.handoffDups = met.Counter("clr_cluster_handoff_duplicates_total",
		"Handoff pushes acked as duplicates of an already-committed import.")
	n.handoffErrs = met.Counter("clr_cluster_handoff_errors_total",
		"Device handoffs that failed and were re-imported locally.")
	n.rebalances = met.Counter("clr_cluster_rebalances_total",
		"Membership changes that triggered an ownership rescan.")
	n.ringVersion = met.Gauge("clr_cluster_ring_version",
		"Fingerprint of the alive-member ring (equal values = identical ownership).")
	n.nodesAlive = met.Gauge("clr_cluster_nodes_alive",
		"Cluster members this node currently considers alive.")
	n.ringVersion.Set(int64(ring.Version()))
	n.nodesAlive.Set(int64(len(ring.Members())))
	return n, nil
}

// aliveMembersLocked lists the alive member IDs; n.mu must be held.
func (n *Node) aliveMembersLocked() []string {
	out := make([]string, 0, len(n.alive))
	for id, up := range n.alive {
		if up {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// view snapshots the routing state.
func (n *Node) view() (*Ring, map[string]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring, n.urls
}

// Ring returns the current ring over alive members.
func (n *Node) Ring() *Ring {
	r, _ := n.view()
	return r
}

// Middleware wraps the fleet handler with the cluster router and the
// node-to-node endpoints. Pass it to fleet.Server.Wrap.
func (n *Node) Middleware(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cluster/ring", n.handleRing)
	mux.HandleFunc("GET /v1/cluster/versions", n.handleVersions)
	mux.HandleFunc("GET /v1/cluster/database/{name}", n.handleDatabase)
	mux.HandleFunc("GET /v1/cluster/vtables", n.handleVTables)
	mux.HandleFunc("GET /v1/cluster/vtable/{name}", n.handleVTable)
	mux.HandleFunc("POST /v1/cluster/handoff", n.authed(n.handleHandoff))
	mux.HandleFunc("POST /v1/cluster/membership", n.authed(n.handleMembership))
	mux.Handle("/", n.router(next))
	return mux
}

// authed gates a node-to-node/admin endpoint behind the shared
// cluster token: these endpoints inject device state and flip
// membership, so on a listener reachable beyond the cluster network
// they must not be open. With no token configured the handler is
// passed through unchanged (loopback/dev deployments).
func (n *Node) authed(h http.HandlerFunc) http.HandlerFunc {
	if n.token == "" {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		got := []byte(r.Header.Get(TokenHeader))
		if subtle.ConstantTimeCompare(got, []byte(n.token)) != 1 {
			writeJSON(w, http.StatusForbidden, map[string]string{"error": "cluster: missing or invalid " + TokenHeader})
			return
		}
		h(w, r)
	}
}

// router owns the per-request ownership decision. It is also the
// cluster's trace edge: the inbound X-Clr-Trace-Id is adopted (or one
// is minted as the fallback) before routing, and the forward hop
// carries the header onward, so one trace ID spans edge, forward and
// the owning node's decision journal.
func (n *Node) router(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, err := obs.ParseTraceID(r.Header.Get(obs.TraceHeader))
		if err != nil {
			trace = n.minter.Mint()
		}
		r = r.WithContext(obs.WithTrace(r.Context(), trace))
		r.Header.Set(obs.TraceHeader, string(trace))

		// Batch decides carry many devices, so ownership is per event,
		// not per request — and deviceFor would misread the ":" suffix
		// as a device ID. Re-bucket before any single-device routing.
		if r.Method == http.MethodPost && r.URL.Path == batchPath {
			n.routeBatch(w, r, next)
			return
		}

		id, body, scoped, err := n.deviceFor(r)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		if !scoped {
			w.Header().Set(NodeHeader, n.self)
			next.ServeHTTP(w, r)
			return
		}
		ring, urls := n.view()
		owner := ring.Owner(id)
		if owner == n.self || r.Header.Get(ForwardedHeader) != "" ||
			(n.draining.Load() && n.reg.Has(id)) {
			// Ours — or a forwarded request, which is served locally
			// even when our ring disagrees (one hop maximum, so a
			// transiently split membership view cannot loop a request)
			// — or a device awaiting its drain handoff, which this
			// node keeps serving until the export; its decisions land
			// in the handoff bundle when its turn comes.
			w.Header().Set(NodeHeader, n.self)
			if body != nil {
				r.Body = io.NopCloser(bytes.NewReader(body))
				r.ContentLength = int64(len(body))
			}
			next.ServeHTTP(w, r)
			return
		}
		if n.redirect {
			n.redirects.Inc()
			w.Header().Set(RedirectHeader, urls[owner])
			w.Header().Set(NodeHeader, n.self)
			http.Redirect(w, r, urls[owner]+r.URL.RequestURI(), http.StatusTemporaryRedirect)
			return
		}
		n.forward(w, r, urls[owner], body)
	})
}

// deviceFor extracts the routing key from a device-scoped request:
// the {id} path segment of /v1/devices/{id}[/...], or the "id" field
// of a POST /v1/devices registration body (which is buffered and
// handed back for replay into the local handler or the forward hop).
func (n *Node) deviceFor(r *http.Request) (id string, body []byte, scoped bool, err error) {
	const prefix = "/v1/devices"
	path := r.URL.Path
	if !strings.HasPrefix(path, prefix) {
		return "", nil, false, nil
	}
	rest := strings.TrimPrefix(path, prefix)
	if rest == "" || rest == "/" {
		if r.Method != http.MethodPost {
			return "", nil, false, nil
		}
		body, err = io.ReadAll(io.LimitReader(r.Body, n.maxBody+1))
		if err != nil {
			return "", nil, false, fmt.Errorf("cluster: reading registration body: %w", err)
		}
		if int64(len(body)) > n.maxBody {
			return "", nil, false, fmt.Errorf("cluster: registration body exceeds %d bytes", n.maxBody)
		}
		var reg struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &reg); err != nil || reg.ID == "" {
			return "", nil, false, fmt.Errorf("cluster: registration body carries no device id")
		}
		return reg.ID, body, true, nil
	}
	seg := strings.TrimPrefix(rest, "/")
	if i := strings.IndexByte(seg, '/'); i >= 0 {
		seg = seg[:i]
	}
	if seg == "" {
		return "", nil, false, nil
	}
	return seg, nil, true, nil
}

// forward proxies the request to the owning node, propagating the
// trace header and marking the hop so the owner serves it even on a
// split view.
func (n *Node) forward(w http.ResponseWriter, r *http.Request, ownerURL string, body []byte) {
	if body == nil && r.Body != nil {
		var err error
		body, err = io.ReadAll(io.LimitReader(r.Body, n.maxBody+1))
		if err != nil {
			writeJSON(w, http.StatusBadGateway, map[string]string{"error": "cluster: buffering request body: " + err.Error()})
			return
		}
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, ownerURL+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
		return
	}
	req.Header = r.Header.Clone()
	req.Header.Set(ForwardedHeader, n.self)
	resp, err := n.httpc.Do(req)
	if err != nil {
		n.forwardErrs.Inc()
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": "cluster: forward to owner failed: " + err.Error()})
		return
	}
	defer resp.Body.Close()
	n.forwards.Inc()
	h := w.Header()
	for k, vs := range resp.Header {
		h[k] = vs
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		// The owner answered; only the relay to the client broke.
		n.log.WarnContext(r.Context(), "cluster: streaming forwarded response failed", "owner", ownerURL, "err", err)
	}
}

// MemberJSON is one member in the ring document.
type MemberJSON struct {
	ID    string `json:"id"`
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
}

// RingJSON is the body of GET /v1/cluster/ring: everything a
// ring-aware client needs to mirror this node's ownership map.
type RingJSON struct {
	Self    string       `json:"self"`
	Version uint32       `json:"version"`
	VNodes  int          `json:"vnodes"`
	Forward string       `json:"forward"`
	Members []MemberJSON `json:"members"`
}

// RingInfo snapshots the node's membership view as the ring document.
func (n *Node) RingInfo() RingJSON {
	n.mu.Lock()
	defer n.mu.Unlock()
	ids := make([]string, 0, len(n.urls))
	for id := range n.urls {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	doc := RingJSON{
		Self:    n.self,
		Version: n.ring.Version(),
		VNodes:  n.vnodes,
		Forward: "proxy",
	}
	if n.redirect {
		doc.Forward = "redirect"
	}
	for _, id := range ids {
		doc.Members = append(doc.Members, MemberJSON{ID: id, URL: n.urls[id], Alive: n.alive[id]})
	}
	return doc
}

func (n *Node) handleRing(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, n.RingInfo())
}

// handleHandoff imports one migrated device's state bundle.
func (n *Node) handleHandoff(w http.ResponseWriter, r *http.Request) {
	var st fleet.DeviceState
	dec := json.NewDecoder(io.LimitReader(r.Body, 64<<20))
	if err := dec.Decode(&st); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "cluster: decoding handoff bundle: " + err.Error()})
		return
	}
	if err := n.reg.ImportDevice(&st); err != nil {
		if errors.Is(err, fleet.ErrDeviceExists) && n.supersedes(&st) {
			// Duplicate push: an earlier delivery of this bundle
			// already committed here (the exporter's push timed out
			// after the import, or a lost 200 forced a retry). Ack it
			// so the exporter drops its copy instead of re-importing
			// and diverging from this one.
			n.handoffDups.Inc()
			n.log.InfoContext(r.Context(), "duplicate handoff acked", "device", st.Params.ID)
			writeJSON(w, http.StatusOK, map[string]string{"imported": st.Params.ID, "duplicate": "true"})
			return
		}
		status := http.StatusBadRequest
		if errors.Is(err, fleet.ErrDeviceExists) {
			status = http.StatusConflict
		}
		writeJSON(w, status, map[string]string{"error": err.Error()})
		return
	}
	n.handoffIn.Inc()
	n.log.InfoContext(r.Context(), "device imported", "device", st.Params.ID, "decisions", st.Stats.Decisions)
	writeJSON(w, http.StatusOK, map[string]string{"imported": st.Params.ID})
}

// supersedes reports whether this node's registered copy of the
// bundle's device is at least as advanced as the bundle on every
// monotonic axis (replay-cache sequence, manager event clock,
// decision count). The bundle then duplicates a handoff this node
// already committed — possibly followed by further local decisions —
// and the push is acked rather than rejected, keeping handoff
// idempotent when an ack is lost in flight.
func (n *Node) supersedes(st *fleet.DeviceState) bool {
	cur, err := n.reg.ExportDevice(st.Params.ID)
	if err != nil {
		return false
	}
	return cur.Params.Database == st.Params.Database &&
		cur.LastSeq >= st.LastSeq &&
		cur.Events >= st.Events &&
		cur.Stats.Decisions >= st.Stats.Decisions
}

// MembershipJSON is the body of POST /v1/cluster/membership: the
// admin/test surface for flipping members alive or dead. The prober
// is the production path; this endpoint exists so an operator (or a
// deterministic soak) can drive membership explicitly.
type MembershipJSON struct {
	Alive map[string]bool `json:"alive"`
}

func (n *Node) handleMembership(w http.ResponseWriter, r *http.Request) {
	var body MembershipJSON
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&body); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if err := n.SetStates(r.Context(), body.Alive); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, n.RingInfo())
}

// SetStates applies membership flips (id → alive) and, when the alive
// set changed, rebuilds the ring and rebalances: every local device
// whose owner is no longer this node is exported and pushed to its
// new owner. Marking self dead is rejected — a node drains itself
// with Leave, not by suspicion.
func (n *Node) SetStates(ctx context.Context, states map[string]bool) error {
	ids := make([]string, 0, len(states))
	for id := range states {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	n.mu.Lock()
	changed := false
	for _, id := range ids {
		up := states[id]
		if id == n.self && !up {
			n.mu.Unlock()
			return fmt.Errorf("cluster: refusing to mark self %q dead (use Leave)", n.self)
		}
		if _, known := n.alive[id]; !known {
			n.mu.Unlock()
			return fmt.Errorf("cluster: unknown member %q", id)
		}
		if n.alive[id] != up {
			n.alive[id] = up
			changed = true
		}
	}
	if !changed {
		n.mu.Unlock()
		return nil
	}
	ring, err := NewRing(n.aliveMembersLocked(), n.vnodes)
	if err != nil {
		n.mu.Unlock()
		return err
	}
	n.ring = ring
	n.ringVersion.Set(int64(ring.Version()))
	n.nodesAlive.Set(int64(len(ring.Members())))
	n.mu.Unlock()

	n.rebalances.Inc()
	n.log.InfoContext(ctx, "membership changed", "alive", len(ring.Members()), "ring_version", ring.Version())
	return n.Rebalance(ctx)
}

// Rebalance scans the local devices and hands every one this node no
// longer owns to its new owner. A failed push re-imports the device
// locally so no state is ever dropped; the next rebalance retries.
func (n *Node) Rebalance(ctx context.Context) error {
	ring, urls := n.view()
	var firstErr error
	moved := 0
	for _, id := range n.reg.DeviceIDs() {
		owner := ring.Owner(id)
		if owner == n.self {
			continue
		}
		if err := n.handDevice(ctx, id, owner, urls[owner]); err != nil && firstErr == nil {
			firstErr = err
		} else if err == nil {
			moved++
		}
	}
	if moved > 0 {
		n.log.InfoContext(ctx, "rebalance complete", "devices_moved", moved)
	}
	return firstErr
}

// Leave drains this node for shutdown. The ring without self is
// installed first — so while the listener drains, requests for
// already-exported devices forward (or redirect) to their new owners
// instead of 404ing here — and every local device is then handed to
// its owner in that ring. A device still awaiting its handoff keeps
// being served locally (see router's draining check), so in-flight
// traffic survives a rolling restart. The caller then stops serving;
// peers learn of the departure through their probers or an explicit
// membership flip.
func (n *Node) Leave(ctx context.Context) error {
	n.mu.Lock()
	members := n.aliveMembersLocked()
	rest := make([]string, 0, len(members))
	for _, m := range members {
		if m != n.self {
			rest = append(rest, m)
		}
	}
	if len(rest) == 0 {
		n.mu.Unlock()
		return fmt.Errorf("cluster: cannot leave a single-node cluster (no peer to hand devices to)")
	}
	ring, err := NewRing(rest, n.vnodes)
	if err != nil {
		n.mu.Unlock()
		return err
	}
	// draining flips before the ring swap: between the two, requests
	// still route by the old ring (self owns its devices), and after
	// both, non-exported devices are caught by the draining check.
	n.draining.Store(true)
	n.alive[n.self] = false
	n.ring = ring
	n.ringVersion.Set(int64(ring.Version()))
	n.nodesAlive.Set(int64(len(ring.Members())))
	urls := n.urls
	n.mu.Unlock()

	var firstErr error
	moved := 0
	for _, id := range n.reg.DeviceIDs() {
		owner := ring.Owner(id)
		if err := n.handDevice(ctx, id, owner, urls[owner]); err != nil && firstErr == nil {
			firstErr = err
		} else if err == nil {
			moved++
		}
	}
	n.log.InfoContext(ctx, "leave complete", "devices_moved", moved)
	return firstErr
}

// handDevice exports one device and pushes the bundle to its new
// owner, re-importing locally if the push fails.
func (n *Node) handDevice(ctx context.Context, id, owner, ownerURL string) error {
	st, err := n.reg.ExportRemove(id)
	if err != nil {
		return err
	}
	err = n.pushHandoff(ctx, ownerURL, st)
	if err != nil {
		// One immediate retry: the owner acks a duplicate import, so a
		// push that timed out after the owner committed converges here
		// instead of leaving the device active on both nodes.
		err = n.pushHandoff(ctx, ownerURL, st)
	}
	if err != nil {
		n.handoffErrs.Inc()
		if imp := n.reg.ImportDevice(st); imp != nil {
			n.log.ErrorContext(ctx, "handoff failed AND local re-import failed; device state dropped",
				"device", id, "owner", owner, "push_err", err, "import_err", imp)
			return fmt.Errorf("cluster: handoff of %q failed (%v) and re-import failed: %w", id, err, imp)
		}
		n.log.WarnContext(ctx, "handoff failed; device re-imported locally", "device", id, "owner", owner, "err", err)
		return fmt.Errorf("cluster: handoff of %q to %s failed: %w", id, owner, err)
	}
	n.handoffOut.Inc()
	return nil
}

// pushHandoff POSTs one bundle to the owner's handoff endpoint.
func (n *Node) pushHandoff(ctx context.Context, ownerURL string, st *fleet.DeviceState) error {
	b, err := json.Marshal(st)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ownerURL+"/v1/cluster/handoff", bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if n.token != "" {
		req.Header.Set(TokenHeader, n.token)
	}
	resp, err := n.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if rerr != nil {
			body = []byte("(unreadable body: " + rerr.Error() + ")")
		}
		return fmt.Errorf("cluster: handoff rejected: status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return nil
}

// Run drives the health prober until ctx is cancelled. With
// ProbeInterval 0 it returns immediately — membership is then purely
// explicit.
func (n *Node) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		return
	}
	n.mu.Lock()
	peers := make([]string, 0, len(n.urls))
	for id := range n.urls {
		if id != n.self {
			peers = append(peers, id)
		}
	}
	urls := n.urls
	n.mu.Unlock()
	sort.Strings(peers)
	fails := make(map[string]int, len(peers))
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		flips := make(map[string]bool)
		for _, id := range peers {
			if n.probe(ctx, urls[id]) {
				fails[id] = 0
				flips[id] = true
			} else {
				fails[id]++
				if fails[id] >= n.suspect {
					flips[id] = false
				}
			}
		}
		if err := n.SetStates(ctx, flips); err != nil {
			n.log.ErrorContext(ctx, "prober membership update failed", "err", err)
		}
	}
}

// probe checks one peer's liveness.
func (n *Node) probe(ctx context.Context, url string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := n.httpc.Do(req)
	if err != nil {
		return false
	}
	if _, err := io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)); err != nil {
		n.log.DebugContext(ctx, "cluster: probe body drain failed", "url", url, "err", err)
	}
	if err := resp.Body.Close(); err != nil {
		n.log.DebugContext(ctx, "cluster: probe body close failed", "url", url, "err", err)
	}
	return resp.StatusCode == http.StatusOK
}

// writeJSON renders a response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//lint:allow errdrop a response-write failure means the client is gone; there is no one left to tell
	_ = json.NewEncoder(w).Encode(v)
}
