package cluster_test

// Unit surface for the cluster node: configuration validation, the
// admin endpoints (ring document, explicit membership), router edge
// cases (unscoped paths, malformed registrations), forwarding to a
// dead owner, drain/handoff failure recovery, and the health prober's
// suspicion state machine. The soak test covers the happy paths end
// to end; these tests pin the error branches deterministically.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"clrdse/internal/cluster"
	"clrdse/internal/fleet"
	"clrdse/internal/fleet/fleettest"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newFleetServer(t *testing.T) *fleet.Server {
	t.Helper()
	srv, err := fleet.NewServer(fleet.ServerConfig{
		Databases: fleettest.Databases(t),
		Logger:    discardLogger(),
	})
	if err != nil {
		t.Fatalf("fleet server: %v", err)
	}
	return srv
}

// deviceOwnedBy searches for a device ID the given ring assigns to
// the wanted member, so a test can steer a request at (or away from)
// a specific node.
func deviceOwnedBy(t *testing.T, ring *cluster.Ring, prefix, want string) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("%s-%d", prefix, i)
		if ring.Owner(id) == want {
			return id
		}
	}
	t.Fatalf("no device ID owned by %s in 1000 candidates", want)
	return ""
}

func registerBody(t *testing.T, id string) []byte {
	t.Helper()
	dbs := fleettest.Databases(t)
	boot := fleettest.LooseSpec(dbs[0].DB)
	b, err := json.Marshal(fleet.RegisterRequest{
		ID:       id,
		Database: dbs[0].Name,
		PRC:      0.5,
		Trigger:  "on-violation",
		Initial:  fleet.QoSSpecJSON{SMaxMs: boot.SMaxMs, FMin: boot.FMin},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNodeConfigErrors(t *testing.T) {
	srv := newFleetServer(t)
	tests := []struct {
		name string
		cfg  cluster.Config
	}{
		{"empty self", cluster.Config{Peers: []cluster.Peer{{ID: "a", URL: "http://x"}}}},
		{"peer without URL", cluster.Config{Self: "a", Peers: []cluster.Peer{{ID: "a"}}}},
		{"duplicate peer ID", cluster.Config{Self: "a", Peers: []cluster.Peer{
			{ID: "a", URL: "http://x"}, {ID: "a", URL: "http://y"}}}},
		{"self not in peers", cluster.Config{Self: "z", Peers: []cluster.Peer{{ID: "a", URL: "http://x"}}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Logger = discardLogger()
			if _, err := cluster.New(tc.cfg, srv); err == nil {
				t.Fatal("New accepted an invalid config")
			}
		})
	}
}

func TestClusterAdminEndpoints(t *testing.T) {
	clus, err := fleettest.NewCluster(fleettest.ClusterOptions{Nodes: 3, TraceSeed: 31})
	if err != nil {
		t.Fatal(err)
	}
	defer clus.Close()

	if info := clus.Nodes[0].Node.RingInfo(); info.Self != "node-0" || info.VNodes != cluster.DefaultVNodes {
		t.Fatalf("ring info self %q vnodes %d, want node-0 and default %d", info.Self, info.VNodes, cluster.DefaultVNodes)
	}

	resp, err := http.Get(clus.URLs()[0] + "/v1/cluster/ring")
	if err != nil {
		t.Fatal(err)
	}
	var doc cluster.RingJSON
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc.Self != "node-0" || doc.VNodes != cluster.DefaultVNodes || doc.Forward != "proxy" {
		t.Fatalf("ring doc = %+v", doc)
	}
	if len(doc.Members) != 3 {
		t.Fatalf("ring doc lists %d members, want 3", len(doc.Members))
	}
	for _, m := range doc.Members {
		if !m.Alive || m.URL == "" {
			t.Fatalf("member %+v not alive with a URL", m)
		}
	}

	postMembership := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(clus.URLs()[0]+"/v1/cluster/membership", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	readClose := func(r *http.Response) {
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}

	// A valid flip changes the published ring.
	resp = postMembership(`{"alive":{"node-2":false}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("membership flip: status %d", resp.StatusCode)
	}
	var after cluster.RingJSON
	if err := json.NewDecoder(resp.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if after.Version == doc.Version {
		t.Fatal("ring version unchanged after losing a member")
	}
	for _, m := range after.Members {
		if m.ID == "node-2" && m.Alive {
			t.Fatal("node-2 still alive in the ring doc after the flip")
		}
	}
	readClose(postMembership(`{"alive":{"node-2":true}}`))

	// Error surfaces: malformed body, unknown member, self-dead.
	for _, bad := range []string{
		`{"alive":`,
		`{"alive":{"node-9":false}}`,
		`{"alive":{"node-0":false}}`,
	} {
		resp := postMembership(bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("membership %q: status %d, want 400", bad, resp.StatusCode)
		}
		readClose(resp)
	}

	// Handoff endpoint error surfaces: garbage bundle, duplicate device.
	resp, err = http.Post(clus.URLs()[0]+"/v1/cluster/handoff", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage handoff: status %d, want 400", resp.StatusCode)
	}
	readClose(resp)

	ring := clus.Nodes[0].Node.Ring()
	dup := deviceOwnedBy(t, ring, "dup", "node-1")
	resp, err = http.Post(clus.URLs()[0]+"/v1/devices", "application/json", bytes.NewReader(registerBody(t, dup)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register %s: status %d", dup, resp.StatusCode)
	}
	readClose(resp)
	st, err := clus.Nodes[1].Srv.Registry().ExportDevice(dup)
	if err != nil {
		t.Fatal(err)
	}

	// Re-pushing a bundle the node already holds (same state) is acked
	// as a duplicate — the idempotency that lets an exporter whose 200
	// was lost in flight retry instead of re-importing and diverging.
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(clus.URLs()[1]+"/v1/cluster/handoff", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate handoff: status %d, want 200", resp.StatusCode)
	}
	var ack map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ack["duplicate"] != "true" {
		t.Fatalf("duplicate handoff ack = %v, want duplicate marker", ack)
	}

	// A bundle claiming state the local copy doesn't have is a genuine
	// conflict: the copies diverged, and silently dropping either one
	// would lose decisions.
	st.Stats.Decisions++
	st.LastSeq, st.HaveLast = 5, true
	b, err = json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(clus.URLs()[1]+"/v1/cluster/handoff", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("diverged handoff: status %d, want 409", resp.StatusCode)
	}
	readClose(resp)
}

func TestRouterUnscopedAndMalformed(t *testing.T) {
	clus, err := fleettest.NewCluster(fleettest.ClusterOptions{Nodes: 3, TraceSeed: 37})
	if err != nil {
		t.Fatal(err)
	}
	defer clus.Close()

	// Non-device paths are served locally by whichever node answers.
	resp, err := http.Get(clus.URLs()[1] + "/v1/databases")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("databases: status %d", resp.StatusCode)
	}
	if node := resp.Header.Get(cluster.NodeHeader); node != "node-1" {
		t.Fatalf("unscoped request served by %q, want node-1", node)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// Registrations without a parseable device ID are rejected at the
	// edge, before any routing.
	for _, body := range []string{`{"nope":true}`, `{{{`} {
		resp, err := http.Post(clus.URLs()[0]+"/v1/devices", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("register %q: status %d, want 400", body, resp.StatusCode)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// A device-scoped request lands on its owner no matter the entry
	// node, and the answer names the node that served it.
	ring := clus.Nodes[0].Node.Ring()
	id := deviceOwnedBy(t, ring, "fwd", "node-2")
	resp, err = http.Post(clus.URLs()[0]+"/v1/devices", "application/json", bytes.NewReader(registerBody(t, id)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("forwarded register: status %d", resp.StatusCode)
	}
	if node := resp.Header.Get(cluster.NodeHeader); node != "node-2" {
		t.Fatalf("forwarded register served by %q, want node-2", node)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// ghostCluster builds a live node "a" whose only peer "b" is
// unreachable (a closed loopback port), serving through an httptest
// listener.
func ghostCluster(t *testing.T) (*cluster.Node, *fleet.Server, string) {
	t.Helper()
	srv := newFleetServer(t)
	node, err := cluster.New(cluster.Config{
		Self: "a",
		Peers: []cluster.Peer{
			{ID: "a", URL: "http://127.0.0.1:0"},
			{ID: "b", URL: "http://127.0.0.1:1"},
		},
		HTTPTimeout: 500 * time.Millisecond,
		Logger:      discardLogger(),
	}, srv)
	if err != nil {
		t.Fatal(err)
	}
	srv.Wrap(node.Middleware)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return node, srv, ts.URL
}

func TestForwardToDeadOwnerAnswers502(t *testing.T) {
	node, _, url := ghostCluster(t)
	id := deviceOwnedBy(t, node.Ring(), "dead", "b")
	resp, err := http.Post(url+"/v1/devices", "application/json", bytes.NewReader(registerBody(t, id)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("forward to dead owner: status %d, want 502", resp.StatusCode)
	}
}

func TestLeaveFailuresKeepState(t *testing.T) {
	ctx := context.Background()

	// A single-node cluster has nowhere to drain to.
	srv := newFleetServer(t)
	solo, err := cluster.New(cluster.Config{
		Self:   "only",
		Peers:  []cluster.Peer{{ID: "only", URL: "http://127.0.0.1:0"}},
		Logger: discardLogger(),
	}, srv)
	if err != nil {
		t.Fatal(err)
	}
	if err := solo.Leave(ctx); err == nil {
		t.Fatal("Leave succeeded on a single-node cluster")
	}

	// A failed handoff push re-imports the device locally: draining
	// towards an unreachable peer errors but never drops state.
	node, gsrv, url := ghostCluster(t)
	id := deviceOwnedBy(t, node.Ring(), "keep", "a")
	resp, err := http.Post(url+"/v1/devices", "application/json", bytes.NewReader(registerBody(t, id)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if err := node.Leave(ctx); err == nil {
		t.Fatal("Leave succeeded with an unreachable peer")
	}
	found := false
	for _, d := range gsrv.Registry().DeviceIDs() {
		if d == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("device %s dropped after a failed drain", id)
	}
}

func TestProberFlipsMembership(t *testing.T) {
	var peerOK atomic.Bool
	peerOK.Store(true)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if peerOK.Load() {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer peer.Close()

	srv := newFleetServer(t)
	node, err := cluster.New(cluster.Config{
		Self: "a",
		Peers: []cluster.Peer{
			{ID: "a", URL: "http://127.0.0.1:0"},
			{ID: "b", URL: peer.URL},
		},
		SuspectAfter: 2,
		HTTPTimeout:  time.Second,
		Logger:       discardLogger(),
	}, srv)
	if err != nil {
		t.Fatal(err)
	}

	// Interval 0 disables probing entirely.
	node.Run(context.Background(), 0)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go node.Run(ctx, 5*time.Millisecond)

	peerAlive := func() bool {
		for _, m := range node.RingInfo().Members {
			if m.ID == "b" {
				return m.Alive
			}
		}
		return false
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for i := 0; i < 1000; i++ {
			if cond() {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("prober never %s", what)
	}

	peerOK.Store(false)
	waitFor("suspected the failing peer", func() bool { return !peerAlive() })
	peerOK.Store(true)
	waitFor("recovered the peer", peerAlive)
}

// TestClusterAuthToken pins the shared-secret gate on the
// node-to-node/admin endpoints: without the token they are 403, with
// it they behave normally, the read-only ring document stays open,
// and the nodes' own handoff pushes clear the gate.
func TestClusterAuthToken(t *testing.T) {
	ctx := context.Background()
	clus, err := fleettest.NewCluster(fleettest.ClusterOptions{
		Nodes: 2, TraceSeed: 41, AuthToken: "sesame",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clus.Close()

	post := func(path, token, body string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, clus.URLs()[0]+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if token != "" {
			req.Header.Set(cluster.TokenHeader, token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	for _, tok := range []string{"", "wrong"} {
		if got := post("/v1/cluster/membership", tok, `{"alive":{"node-1":false}}`); got != http.StatusForbidden {
			t.Fatalf("membership with token %q: status %d, want 403", tok, got)
		}
		if got := post("/v1/cluster/handoff", tok, `{}`); got != http.StatusForbidden {
			t.Fatalf("handoff with token %q: status %d, want 403", tok, got)
		}
	}
	// The right token reaches the handlers (the empty bundle then
	// fails validation, proving the gate passed it through).
	if got := post("/v1/cluster/handoff", "sesame", `{}`); got != http.StatusBadRequest {
		t.Fatalf("authed garbage handoff: status %d, want 400", got)
	}
	if got := post("/v1/cluster/membership", "sesame", `{"alive":{"node-1":false}}`); got != http.StatusOK {
		t.Fatalf("authed membership flip: status %d, want 200", got)
	}
	if got := post("/v1/cluster/membership", "sesame", `{"alive":{"node-1":true}}`); got != http.StatusOK {
		t.Fatalf("authed membership restore: status %d, want 200", got)
	}
	resp, err := http.Get(clus.URLs()[0] + "/v1/cluster/ring")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ring doc behind the gate: status %d, want 200 (read-only stays open)", resp.StatusCode)
	}

	// A real drain: node-1's handoff pushes must carry the token.
	id := deviceOwnedBy(t, clus.Nodes[0].Node.Ring(), "tok", "node-1")
	resp, err = http.Post(clus.URLs()[0]+"/v1/devices", "application/json", bytes.NewReader(registerBody(t, id)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
	if err := clus.Kill(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if !clus.Nodes[0].Srv.Registry().Has(id) {
		t.Fatal("device lost draining through the token gate")
	}
}

// TestRebalanceConvergesDuplicateCopies pins the split-import repair:
// a push that times out after the owner committed leaves the device
// active on both nodes (the exporter re-imports on the missed ack).
// The next rebalance must converge — the owner acks the duplicate
// push and the stale copy is dropped — instead of looping
// ExportRemove → 409 → re-import forever.
func TestRebalanceConvergesDuplicateCopies(t *testing.T) {
	clus, err := fleettest.NewCluster(fleettest.ClusterOptions{Nodes: 2, TraceSeed: 43})
	if err != nil {
		t.Fatal(err)
	}
	defer clus.Close()

	id := deviceOwnedBy(t, clus.Nodes[0].Node.Ring(), "both", "node-1")
	resp, err := http.Post(clus.URLs()[0]+"/v1/devices", "application/json", bytes.NewReader(registerBody(t, id)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d", resp.StatusCode)
	}

	// Reproduce the double-active state: the owner (node-1) holds the
	// device, and node-0 re-imported the same bundle after a lost ack.
	st, err := clus.Nodes[1].Srv.Registry().ExportDevice(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := clus.Nodes[0].Srv.Registry().ImportDevice(st); err != nil {
		t.Fatal(err)
	}

	if err := clus.Nodes[0].Node.Rebalance(context.Background()); err != nil {
		t.Fatalf("rebalance with a duplicate copy: %v", err)
	}
	if clus.Nodes[0].Srv.Registry().Has(id) {
		t.Fatal("stale copy still active on the non-owner after rebalance")
	}
	if !clus.Nodes[1].Srv.Registry().Has(id) {
		t.Fatal("device missing from its owner after the duplicate ack")
	}
}

// TestLeaveRoutesDrainedDevices pins the drain routing fix: Leave
// installs the ring without self before exporting, so a request for
// an already-handed-off device arriving at the leaver (whose listener
// is still open) forwards to the new owner instead of 404ing.
func TestLeaveRoutesDrainedDevices(t *testing.T) {
	clus, err := fleettest.NewCluster(fleettest.ClusterOptions{Nodes: 2, TraceSeed: 47})
	if err != nil {
		t.Fatal(err)
	}
	defer clus.Close()

	id := deviceOwnedBy(t, clus.Nodes[0].Node.Ring(), "drain", "node-0")
	resp, err := http.Post(clus.URLs()[0]+"/v1/devices", "application/json", bytes.NewReader(registerBody(t, id)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d", resp.StatusCode)
	}

	if err := clus.Nodes[0].Node.Leave(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(clus.URLs()[0] + "/v1/devices/" + id)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drained device at the leaver: status %d, want 200 via forward", resp.StatusCode)
	}
	if node := resp.Header.Get(cluster.NodeHeader); node != "node-1" {
		t.Fatalf("drained device served by %q, want node-1", node)
	}
}
