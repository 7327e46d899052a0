package chaos_test

// The chaos soak: the same fleet of devices replays the same QoS event
// scripts twice, once fault-free and once under the full fault
// schedule (transport drops, corrupted bodies, server rejections,
// stalled and corrupted decision paths), and soak.Run's
// invariants must hold: every event answered byte-identical to the
// fault-free run, every device whole on its server, and every decision
// explained exactly once in the journal under a valid trace ID
// (at-least-once delivery, exactly-once explanation). On failure the
// journal is written to SOAK_ARTIFACT_DIR as chaos-journal.json.
//
// Everything is seeded: the event scripts, the client's retry jitter
// and the fault schedule, so a failure reproduces exactly.

import (
	"testing"
	"time"

	"clrdse/internal/chaos"
	"clrdse/internal/fleet/fleettest"
	"clrdse/internal/fleet/fleettest/soak"
)

const (
	soakSpecSeed  = 7
	soakChaosSeed = 99
	soakDecideTO  = 200 * time.Millisecond
	soakRounds    = 64
)

func TestChaosSoak(t *testing.T) {
	devices, events := 8, 30
	if testing.Short() {
		devices, events = 4, 12
	}
	inj := chaos.New(chaos.Config{
		Seed:              soakChaosSeed,
		PDropRequest:      0.05,
		PLatency:          0.05,
		PDropResponse:     0.05,
		PTruncateResponse: 0.04,
		PMangleResponse:   0.04,
		LatencyMin:        time.Millisecond,
		LatencyMax:        5 * time.Millisecond,
		PReject:           0.06,
		PServerLatency:    0.05,
		PStall:            0.05,
		PCorrupt:          0.05,
		StallMin:          2 * soakDecideTO,
		StallMax:          3 * soakDecideTO,
	})
	res, err := soak.Run(soak.Config{
		Databases:      fleettest.Databases(t),
		Devices:        devices,
		Events:         events,
		SpecSeed:       soakSpecSeed,
		Faults:         inj,
		Rounds:         soakRounds,
		Attempts:       6,
		AttemptTimeout: 2 * time.Second,
		DecideTimeout:  soakDecideTO,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Error(v)
	}
	if t.Failed() {
		fleettest.SaveArtifact(t, "chaos-journal.json", res.Journal)
	}
	t.Logf("faults=%d replays=%d degraded=%d journal=%d",
		inj.Injected(), res.Replays, res.Degraded, len(res.Journal))
}

// TestChaosSoakReproducible: the fault schedule itself is seeded — two
// injectors with the soak's configuration must report identical
// per-kind counts after identical traffic. (The full soak is too
// timing-dependent for exact count equality across passes, but the
// verdict function must be pure; see TestInjectorDeterministic for the
// stream-level property.)
func TestChaosSoakReproducible(t *testing.T) {
	cfg := chaos.Config{Seed: soakChaosSeed, PReject: 0.3, PServerLatency: 0.1}
	a, b := chaos.New(cfg), chaos.New(cfg)
	for n := 0; n < 1000; n++ {
		fa := a.Sample(chaos.ScopeServer, "POST /v1/devices/soak-0/qos")
		fb := b.Sample(chaos.ScopeServer, "POST /v1/devices/soak-0/qos")
		if fa != fb {
			t.Fatalf("fault schedule not reproducible at #%d: %v != %v", n, fa, fb)
		}
	}
}
