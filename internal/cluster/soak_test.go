package cluster_test

// Multi-node soak: a 3-node in-process cluster serves a device fleet
// through the ring-aware client while a seeded schedule kills and
// restarts nodes between lockstep event rounds. Membership changes
// only at round barriers and the specs are scripted, so
// soak.Run's invariants are asserted exactly: no device lost
// (each ends on exactly one live node with its full history), no
// sequence answered twice (the union journal, after deduplicating the
// identical copies migration makes, holds one decision per (device,
// seq)), no degraded answer during graceful failover, and every
// decision byte-identical to a single-node reference run. On failure
// the union journal is written to SOAK_ARTIFACT_DIR as
// cluster-journal.json.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"clrdse/internal/fleet"
	"clrdse/internal/fleet/client"
	"clrdse/internal/fleet/fleettest"
	"clrdse/internal/fleet/fleettest/soak"
)

const (
	clusterSoakSeed      = 137
	clusterSoakTraceSeed = 21
)

func TestClusterSoak(t *testing.T) {
	devices, rounds := 6, 24
	if testing.Short() {
		devices, rounds = 4, 10
	}
	res, err := soak.Run(soak.Config{
		Databases:      fleettest.Databases(t),
		Devices:        devices,
		Events:         rounds,
		SpecSeed:       clusterSoakSeed,
		Gamma:          0.9, // agent state in play: handoff must carry it
		Nodes:          3,
		KillSeed:       clusterSoakSeed,
		Attempts:       6,
		AttemptTimeout: 5 * time.Second,
		TraceSeed:      clusterSoakTraceSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("membership schedule: %+v", res.Schedule)
	for _, v := range res.Violations {
		t.Error(v)
	}
	if t.Failed() {
		fleettest.SaveArtifact(t, "cluster-journal.json", res.Journal)
	}
}

// TestClusterRedirectMode exercises the 307 path end to end: a
// redirect-mode cluster, a client whose ring mirror is deliberately
// cold, and the assertion that redirects are followed without
// spending retries.
func TestClusterRedirectMode(t *testing.T) {
	dbs := fleettest.Databases(t)
	clus, err := fleettest.NewCluster(fleettest.ClusterOptions{
		Nodes: 3, Databases: dbs, Redirect: true, TraceSeed: clusterSoakTraceSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clus.Close()

	// No RefreshRing: every call starts at target 0 and must be
	// taught ownership by redirects.
	c := client.New(client.Config{
		Targets:          clus.URLs(),
		MaxAttempts:      6,
		AttemptTimeout:   5 * time.Second,
		JitterSeed:       clusterSoakSeed,
		BreakerThreshold: 1 << 20,
	})
	ctx := context.Background()
	boot := fleettest.LooseSpec(dbs[0].DB)
	script := fleettest.Script(dbs[0].DB, 5, 6)
	for d := 0; d < 4; d++ {
		id := fmt.Sprintf("soak-%d", d)
		_, err := c.Register(ctx, fleet.RegisterRequest{
			ID:       id,
			Database: dbs[0].Name,
			PRC:      0.5,
			Gamma:    0.9,
			Trigger:  "on-violation",
			Initial:  fleet.QoSSpecJSON{SMaxMs: boot.SMaxMs, FMin: boot.FMin},
		})
		if err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
		for i, spec := range script {
			dec, err := c.QoS(ctx, id, uint64(i+1),
				fleet.QoSSpecJSON{SMaxMs: spec.SMaxMs, FMin: spec.FMin})
			if err != nil {
				t.Fatalf("device %d event %d: %v", d, i, err)
			}
			if dec.Degraded {
				t.Fatalf("device %d event %d: degraded", d, i)
			}
		}
	}
	st := c.Stats()
	if st.Retries != 0 {
		t.Errorf("redirect following spent %d retries; redirects must not burn retry budget", st.Retries)
	}
	if st.BreakerOpens != 0 {
		t.Errorf("redirect following opened %d breakers", st.BreakerOpens)
	}
}
