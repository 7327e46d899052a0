package client

// Cluster-mode client coverage: the ownership mirror (RefreshRing /
// routeBase), redirect-following without burning retry or breaker
// budget (noteRedirect), per-node breakers and answer attribution,
// and the full endpoint surface against a real in-process cluster.

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"clrdse/internal/cluster"
	"clrdse/internal/fleet"
	"clrdse/internal/fleet/fleettest"
)

func clusterClient(urls []string) *Client {
	return New(Config{
		Targets:        urls,
		MaxAttempts:    4,
		AttemptTimeout: 5 * time.Second,
		JitterSeed:     9,
	})
}

func registerOne(t *testing.T, c *Client, id string) fleet.QoSSpecJSON {
	t.Helper()
	dbs := fleettest.Databases(t)
	boot := fleettest.LooseSpec(dbs[0].DB)
	_, err := c.Register(context.Background(), fleet.RegisterRequest{
		ID:       id,
		Database: dbs[0].Name,
		PRC:      0.5,
		Trigger:  "on-violation",
		Initial:  fleet.QoSSpecJSON{SMaxMs: boot.SMaxMs, FMin: boot.FMin},
	})
	if err != nil {
		t.Fatalf("register %s: %v", id, err)
	}
	return fleet.QoSSpecJSON{SMaxMs: boot.SMaxMs, FMin: boot.FMin}
}

func TestClientClusterEndToEnd(t *testing.T) {
	clus, err := fleettest.NewCluster(fleettest.ClusterOptions{TraceSeed: 51})
	if err != nil {
		t.Fatal(err)
	}
	defer clus.Close()

	c := clusterClient(clus.URLs())
	ctx := context.Background()
	if err := c.RefreshRing(ctx); err != nil {
		t.Fatalf("RefreshRing: %v", err)
	}

	dbs, err := c.Databases(ctx)
	if err != nil || len(dbs) == 0 {
		t.Fatalf("Databases = %v, %v", dbs, err)
	}

	// Enough devices that the ring spreads them over several nodes.
	const n = 8
	specs := make([]fleet.QoSSpecJSON, n)
	for d := 0; d < n; d++ {
		specs[d] = registerOne(t, c, fmt.Sprintf("cli-%d", d))
	}
	for d := 0; d < n; d++ {
		id := fmt.Sprintf("cli-%d", d)
		if _, err := c.QoS(ctx, id, 0, specs[d]); err != nil {
			t.Fatalf("qos %s: %v", id, err)
		}
		dev, err := c.Device(ctx, id)
		if err != nil || dev.ID != id {
			t.Fatalf("device %s: %+v, %v", id, dev, err)
		}
	}

	seen := c.NodesSeen()
	if len(seen) < 2 {
		t.Fatalf("answers attributed to %d nodes (%v), want spread over >= 2", len(seen), seen)
	}
	var total int64
	for _, v := range seen {
		total += v
	}
	if total == 0 {
		t.Fatal("no answers attributed at all")
	}

	// Direct routing burned no retries or redirects.
	st := c.Stats()
	if st.Retries != 0 || st.Redirects != 0 || st.BreakerOpens != 0 {
		t.Fatalf("ring-routed run spent budget: %+v", st)
	}

	for d := 0; d < n; d++ {
		if err := c.Deregister(ctx, fmt.Sprintf("cli-%d", d)); err != nil {
			t.Fatalf("deregister cli-%d: %v", d, err)
		}
	}
}

func TestClientFollowsRedirectWithoutRefresh(t *testing.T) {
	clus, err := fleettest.NewCluster(fleettest.ClusterOptions{Redirect: true, TraceSeed: 53})
	if err != nil {
		t.Fatal(err)
	}
	defer clus.Close()

	// No RefreshRing: every call defaults to the first target, so a
	// device owned elsewhere must arrive via the 307 path.
	c := clusterClient(clus.URLs())
	ring, err := cluster.NewRing([]string{"node-0", "node-1", "node-2"}, cluster.DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	id := ""
	for i := 0; i < 1000; i++ {
		if cand := fmt.Sprintf("redir-%d", i); ring.Owner(cand) != "node-0" {
			id = cand
			break
		}
	}
	if id == "" {
		t.Fatal("no device owned away from node-0")
	}

	spec := registerOne(t, c, id)
	ctx := context.Background()
	if _, err := c.QoS(ctx, id, 0, spec); err != nil {
		t.Fatalf("qos via redirect: %v", err)
	}

	st := c.Stats()
	if st.Redirects == 0 {
		t.Fatal("no redirect recorded despite a cold mirror")
	}
	if st.Retries != 0 || st.BreakerOpens != 0 {
		t.Fatalf("redirects burned retry/breaker budget: %+v", st)
	}
	if len(c.NodesSeen()) == 0 {
		t.Fatal("redirected answers not attributed")
	}
}

func TestRefreshRingErrors(t *testing.T) {
	c := New(Config{BaseURL: "http://127.0.0.1:1"})
	if err := c.RefreshRing(context.Background()); err == nil {
		t.Fatal("RefreshRing without targets succeeded")
	}
	c = New(Config{Targets: []string{"http://127.0.0.1:1"}, AttemptTimeout: 200 * time.Millisecond})
	if err := c.RefreshRing(context.Background()); err == nil {
		t.Fatal("RefreshRing against a dead target succeeded")
	}
}

func TestRedirectErrorAndBreakerStrings(t *testing.T) {
	e := redirectError{target: "http://owner"}
	if !strings.Contains(e.Error(), "http://owner") {
		t.Fatalf("redirectError.Error() = %q", e.Error())
	}
	states := map[BreakerState]string{
		Closed:           "closed",
		Open:             "open",
		HalfOpen:         "half-open",
		BreakerState(99): "unknown",
	}
	for s, want := range states {
		if got := s.String(); got != want {
			t.Fatalf("BreakerState(%d).String() = %q, want %q", s, got, want)
		}
	}
}

func TestRunLoadClusterMode(t *testing.T) {
	clus, err := fleettest.NewCluster(fleettest.ClusterOptions{TraceSeed: 57})
	if err != nil {
		t.Fatal(err)
	}
	defer clus.Close()

	report, err := RunLoad(LoadParams{
		Targets:            clus.URLs(),
		Devices:            4,
		EventsPerDevice:    3,
		Database:           "red",
		PRC:                0.5,
		MeanInterArrivalMs: 0.1,
		Seed:               3,
		DevicePrefix:       "clusterload",
		MaxAttempts:        4,
		AttemptTimeout:     5 * time.Second,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if report.Events != 12 || report.Errors != 0 {
		t.Fatalf("report = %+v, want 12 clean events", report)
	}
	if len(report.PerNode) == 0 {
		t.Fatal("cluster-mode report carries no per-node attribution")
	}
	var attributed int64
	for _, v := range report.PerNode {
		attributed += v
	}
	if attributed < int64(report.Events) {
		t.Fatalf("per-node answers %d < events %d", attributed, report.Events)
	}
	if !strings.Contains(report.String(), "node ") {
		t.Fatalf("report text missing per-node lines:\n%s", report)
	}

	// The named-database miss is a loadgen error, not a server one.
	if _, err := RunLoad(LoadParams{
		Targets: clus.URLs(), Devices: 1, EventsPerDevice: 1,
		Database: "no-such-db", AttemptTimeout: 5 * time.Second,
	}); err == nil {
		t.Fatal("RunLoad accepted an unknown database")
	}
	if _, err := RunLoad(LoadParams{Devices: 0, EventsPerDevice: 1}); err == nil {
		t.Fatal("RunLoad accepted zero devices")
	}
}

func TestLoadReportStringPerNode(t *testing.T) {
	r := &LoadReport{
		Devices: 2, Events: 10, Retries: 1, Redirects: 3,
		Duration: time.Second, Throughput: 10,
		PerNode: map[string]int64{"node-1": 6, "node-0": 4},
	}
	s := r.String()
	for _, want := range []string{"node-0", "node-1", "redirects"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report %q missing %q", s, want)
		}
	}
	// Per-node lines render in sorted node order.
	if strings.Index(s, "node-0") > strings.Index(s, "node-1") {
		t.Fatalf("per-node lines unsorted: %q", s)
	}
}
