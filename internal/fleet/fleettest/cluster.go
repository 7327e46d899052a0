package fleettest

// In-process multi-node cluster harness: N full clrserved stacks
// (fleet.Server wrapped with cluster.Node middleware), each on its own
// loopback listener, with deterministic kill/restart. "Kill" models a
// SIGTERM drain — the node hands every device to the survivors, stops
// answering, and the peers mark it dead; "Restart" brings a fresh
// server up on the same address and the peers rebalance its devices
// back. The harness returns errors rather than taking a testing.TB so
// the soak harness (package soak) can drive the same cluster for
// cmd/clrchaos outside `go test`.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"clrdse/internal/cluster"
	"clrdse/internal/fleet"
	"clrdse/internal/obs"
)

// ClusterOptions configures an in-process cluster.
type ClusterOptions struct {
	// Nodes is the member count (<= 0 selects 3).
	Nodes int
	// VNodes is the ring's virtual-node count (0 selects the cluster
	// package default).
	VNodes int
	// Redirect selects 307-redirect forwarding instead of proxying.
	Redirect bool
	// Databases are the decision bases every node serves (nil selects
	// the package fixture via DatabasesE).
	Databases []fleet.NamedDatabase
	// DecideTimeout is each node's per-decision budget (0 selects the
	// fleet default).
	DecideTimeout time.Duration
	// TraceSeed derives each node's trace minter seeds.
	TraceSeed int64
	// AuthToken, when set, gates every node's handoff/membership
	// endpoints (cluster.Config.AuthToken) — handoff pushes between
	// the nodes carry it automatically.
	AuthToken string
	// Logger receives every node's logs (nil discards them).
	Logger *slog.Logger
}

// ClusterNode is one running member.
type ClusterNode struct {
	// ID is the node's ring name ("node-0"); URL its base URL.
	ID  string
	URL string
	// Srv and Node are the live stack (swapped on Restart).
	Srv  *fleet.Server
	Node *cluster.Node

	handler atomic.Pointer[http.Handler]
	alive   bool
}

// Cluster is a running in-process cluster.
type Cluster struct {
	// Nodes are the members, index-addressable for Kill/Restart.
	Nodes []*ClusterNode

	opt   ClusterOptions
	peers []cluster.Peer
	lns   []net.Listener
	hss   []*http.Server
}

// NewCluster boots an N-node cluster on loopback listeners. Callers
// must Close it.
func NewCluster(opt ClusterOptions) (*Cluster, error) {
	if opt.Nodes <= 0 {
		opt.Nodes = 3
	}
	if opt.Databases == nil {
		dbs, err := DatabasesE()
		if err != nil {
			return nil, err
		}
		opt.Databases = dbs
	}
	if opt.Logger == nil {
		opt.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	c := &Cluster{opt: opt}
	ok := false
	defer func() {
		if !ok {
			c.Close()
		}
	}()
	// Bind all listeners first: the full peer list (IDs and URLs) must
	// exist before any node is built.
	for i := 0; i < opt.Nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("fleettest: cluster listener %d: %w", i, err)
		}
		c.lns = append(c.lns, ln)
		c.peers = append(c.peers, cluster.Peer{
			ID:  fmt.Sprintf("node-%d", i),
			URL: "http://" + ln.Addr().String(),
		})
	}
	for i := 0; i < opt.Nodes; i++ {
		cn := &ClusterNode{ID: c.peers[i].ID, URL: c.peers[i].URL, alive: true}
		if err := c.buildStack(cn, i); err != nil {
			return nil, err
		}
		c.Nodes = append(c.Nodes, cn)
		hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*cn.handler.Load()).ServeHTTP(w, r)
		})}
		c.hss = append(c.hss, hs)
		//lint:allow errdrop Serve returns ErrServerClosed on teardown; a real accept error fails the test through the dead port
		go hs.Serve(c.lns[i])
	}
	ok = true
	return c, nil
}

// buildStack builds (or rebuilds, on Restart) node i's fleet server
// and cluster layer and installs its handler.
func (c *Cluster) buildStack(cn *ClusterNode, i int) error {
	srv, err := fleet.NewServer(fleet.ServerConfig{
		Databases:     c.opt.Databases,
		DecideTimeout: c.opt.DecideTimeout,
		TraceSeed:     c.opt.TraceSeed + int64(i),
		Logger:        c.opt.Logger,
	})
	if err != nil {
		return fmt.Errorf("fleettest: cluster node %d server: %w", i, err)
	}
	node, err := cluster.New(cluster.Config{
		Self:      c.peers[i].ID,
		Peers:     c.peers,
		VNodes:    c.opt.VNodes,
		Redirect:  c.opt.Redirect,
		TraceSeed: c.opt.TraceSeed + 1000 + int64(i),
		AuthToken: c.opt.AuthToken,
		Logger:    c.opt.Logger,
	}, srv)
	if err != nil {
		return fmt.Errorf("fleettest: cluster node %d: %w", i, err)
	}
	srv.Wrap(node.Middleware)
	cn.Srv, cn.Node = srv, node
	h := srv.Handler()
	cn.handler.Store(&h)
	return nil
}

// URLs lists the members' base URLs in node order — ready for
// client.Config.Targets.
func (c *Cluster) URLs() []string {
	out := make([]string, len(c.peers))
	for i, p := range c.peers {
		out[i] = p.URL
	}
	return out
}

// Alive reports whether node i is currently serving.
func (c *Cluster) Alive(i int) bool { return c.Nodes[i].alive }

// Kill drains node i (SIGTERM model): every device it owns is handed
// to the survivors, its address starts answering 503, and the live
// peers mark it dead (which rebalances nothing — the departed node
// already pushed its devices to their new owners).
func (c *Cluster) Kill(ctx context.Context, i int) error {
	cn := c.Nodes[i]
	if !cn.alive {
		return fmt.Errorf("fleettest: node %d already dead", i)
	}
	if err := cn.Node.Leave(ctx); err != nil {
		return fmt.Errorf("fleettest: draining node %d: %w", i, err)
	}
	var down http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"node down"}`, http.StatusServiceUnavailable)
	})
	cn.handler.Store(&down)
	cn.alive = false
	flip := map[string]bool{cn.ID: false}
	for j, other := range c.Nodes {
		if j == i || !other.alive {
			continue
		}
		if err := other.Node.SetStates(ctx, flip); err != nil {
			return fmt.Errorf("fleettest: marking node %d dead on node %d: %w", i, j, err)
		}
	}
	return nil
}

// Restart brings node i back on its original address with a fresh
// fleet server (all serving state was drained away at Kill). The new
// stack adopts the cluster's current deadness map, then the live
// peers mark it alive and hand back the devices it now owns.
func (c *Cluster) Restart(ctx context.Context, i int) error {
	cn := c.Nodes[i]
	if cn.alive {
		return fmt.Errorf("fleettest: node %d already alive", i)
	}
	if err := c.buildStack(cn, i); err != nil {
		return err
	}
	dead := make(map[string]bool)
	for j, other := range c.Nodes {
		if j != i && !other.alive {
			dead[other.ID] = false
		}
	}
	if len(dead) > 0 {
		if err := cn.Node.SetStates(ctx, dead); err != nil {
			return fmt.Errorf("fleettest: seeding node %d membership: %w", i, err)
		}
	}
	cn.alive = true
	flip := map[string]bool{cn.ID: true}
	for j, other := range c.Nodes {
		if j == i || !other.alive {
			continue
		}
		if err := other.Node.SetStates(ctx, flip); err != nil {
			return fmt.Errorf("fleettest: marking node %d alive on node %d: %w", i, j, err)
		}
	}
	return nil
}

// JournalEntry is one decision-journal entry tagged with the node
// hosting the copy.
type JournalEntry struct {
	Node  string    `json:"node"`
	Entry obs.Entry `json:"entry"`
}

// Journal unions every live node's decision-journal snapshot — the
// cluster-wide flight record. Entries a migration copied appear once
// per hosting node; exactly-once assertions dedup identical entries
// first.
func (c *Cluster) Journal() []JournalEntry {
	var out []JournalEntry
	for _, cn := range c.Nodes {
		if !cn.alive {
			continue
		}
		for _, e := range cn.Srv.Registry().Decisions("", 0) {
			out = append(out, JournalEntry{Node: cn.ID, Entry: e})
		}
	}
	return out
}

// Close shuts every member down and releases the listeners. It cuts
// open connections rather than draining them: a graceful shutdown
// waits up to 5s on any connection a client dialled but never used.
func (c *Cluster) Close() {
	for _, hs := range c.hss {
		//lint:allow errdrop best-effort teardown; the members hold nothing that must outlive it
		_ = hs.Close()
	}
	for _, ln := range c.lns {
		//lint:allow errdrop hs.Close above already closed the listener; this double-close is belt and braces
		_ = ln.Close()
	}
}
