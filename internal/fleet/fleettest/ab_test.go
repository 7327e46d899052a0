package fleettest

import (
	"testing"
)

// saveABArtifacts writes the rendered A/B summary and the published
// cohort value tables to SOAK_ARTIFACT_DIR when the test failed, so a
// broken identity or cold-start assertion ships its evidence with the
// run.
func saveABArtifacts(t *testing.T, r *ABResult) {
	if t.Failed() {
		SaveArtifact(t, "cohort-ab.txt", r.Render())
		SaveArtifact(t, "cohort-vtables.json", r.Tables)
	}
}

// TestABReplayable pins the harness's core property: equal params
// produce byte-identical per-arm decision streams and summaries —
// RunAB is a pure function of its seed.
func TestABReplayable(t *testing.T) {
	p := ABParams{Devices: 3, Events: 25, WarmDevices: 4, WarmEvents: 40}
	a, err := RunAB(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAB(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Arms) != len(b.Arms) {
		t.Fatalf("arm counts differ: %d vs %d", len(a.Arms), len(b.Arms))
	}
	for i := range a.Arms {
		x, y := a.Arms[i], b.Arms[i]
		if x.Arm != y.Arm {
			t.Fatalf("arm order differs at %d: %s vs %s", i, x.Arm, y.Arm)
		}
		if len(x.Stream) != len(y.Stream) {
			t.Fatalf("%s stream lengths differ: %d vs %d", x.Arm, len(x.Stream), len(y.Stream))
		}
		for j := range x.Stream {
			if x.Stream[j] != y.Stream[j] {
				t.Fatalf("%s decision %d diverged across replays:\n  %s\n  %s",
					x.Arm, j, x.Stream[j], y.Stream[j])
			}
		}
		if x.TotalDRCMs != y.TotalDRCMs || x.MeanEnergyMJ != y.MeanEnergyMJ ||
			x.Reconfigurations != y.Reconfigurations || x.SettleIndex != y.SettleIndex {
			t.Errorf("%s summaries diverged across replays: %+v vs %+v", x.Arm, x, y)
		}
	}
	if a.Render() != b.Render() {
		t.Error("rendered summaries diverged across replays")
	}
}

// TestABIdentityArm pins uRA ≡ AuRA(γ=0) fleet-wide: the aura0 arm
// carries agents seeded from a published γ=0 cohort table, yet its
// decision stream must be byte-identical to the agentless ura arm's.
// CI's race job replays this identity under -race.
func TestABIdentityArm(t *testing.T) {
	r, err := RunAB(ABParams{Devices: 3, Events: 30, WarmDevices: 4, WarmEvents: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer saveABArtifacts(t, r)
	ura, aura0 := r.Arm("ura"), r.Arm("aura0")
	if ura == nil || aura0 == nil {
		t.Fatal("harness lost an arm")
	}
	if len(ura.Stream) != len(aura0.Stream) {
		t.Fatalf("stream lengths differ: %d vs %d", len(ura.Stream), len(aura0.Stream))
	}
	for i := range ura.Stream {
		if ura.Stream[i] != aura0.Stream[i] {
			t.Fatalf("decision %d diverged:\n  ura:   %s\n  aura0: %s",
				i, ura.Stream[i], aura0.Stream[i])
		}
	}
}

// TestABCohortColdStart pins the cohort advantage the tentpole exists
// for: on the seeded schedule, cold-start devices inheriting the warm
// fleet's value table reach steady-state dRC in fewer decisions (and
// spend no more total dRC) than per-device AuRA devices learning from
// zero.
func TestABCohortColdStart(t *testing.T) {
	r, err := RunAB(ABParams{})
	if err != nil {
		t.Fatal(err)
	}
	defer saveABArtifacts(t, r)
	aura, coh := r.Arm("aura"), r.Arm("cohort")
	if aura == nil || coh == nil {
		t.Fatal("harness lost an arm")
	}
	t.Logf("\n%s", r.Render())
	if coh.SettleIndex >= aura.SettleIndex {
		t.Errorf("cohort settle index %.2f is not below per-device AuRA's %.2f",
			coh.SettleIndex, aura.SettleIndex)
	}
	if coh.TotalDRCMs > aura.TotalDRCMs {
		t.Errorf("cohort total dRC %.3f ms exceeds per-device AuRA's %.3f ms",
			coh.TotalDRCMs, aura.TotalDRCMs)
	}
}
