package runtime

import (
	"strings"
	"testing"
)

func validTable(n int) *ValueTable {
	t := &ValueTable{
		Version: 3, Epoch: 2, Gamma: 0.8,
		DBVersion: 1, DBFingerprint: 0xfeed, QoSFingerprint: 0xbeef,
		Devices: 4, Events: 400,
		VR:     make([]float64, n),
		VD:     make([]float64, n),
		Visits: make([]int, n),
	}
	for i := 0; i < n; i++ {
		t.VR[i] = -float64(i+1) * 0.5
		t.VD[i] = float64(i) * 0.25
		t.Visits[i] = i * 3
	}
	return t
}

func TestValueTableValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*ValueTable)
		wantErr string
	}{
		{"valid", func(*ValueTable) {}, ""},
		{"empty", func(v *ValueTable) { v.VR = nil }, "no states"},
		{"vd mismatch", func(v *ValueTable) { v.VD = v.VD[:2] }, "disagree"},
		{"visits mismatch", func(v *ValueTable) { v.Visits = append(v.Visits, 1) }, "disagree"},
		{"gamma negative", func(v *ValueTable) { v.Gamma = -0.1 }, "gamma"},
		{"gamma one", func(v *ValueTable) { v.Gamma = 1.0 }, "gamma"},
		{"negative visits", func(v *ValueTable) { v.Visits[1] = -1 }, "negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vt := validTable(5)
			tc.mutate(vt)
			err := vt.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid table rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestValueTableFingerprintSensitivity(t *testing.T) {
	base := validTable(6).Fingerprint()
	if validTable(6).Fingerprint() != base {
		t.Fatal("identical tables fingerprint differently")
	}
	// The version number is ordering metadata, not content: two nodes
	// must be able to detect same-version/different-content divergence,
	// so Fingerprint excludes Version (and Epoch/Devices/Events, which
	// are provenance, not values).
	vt := validTable(6)
	vt.Version, vt.Epoch, vt.Devices, vt.Events = 99, 98, 97, 96
	if vt.Fingerprint() != base {
		t.Error("version/provenance metadata leaked into the fingerprint")
	}
	mutations := map[string]func(*ValueTable){
		"gamma":  func(v *ValueTable) { v.Gamma = 0.81 },
		"dbver":  func(v *ValueTable) { v.DBVersion++ },
		"dbfp":   func(v *ValueTable) { v.DBFingerprint++ },
		"qosfp":  func(v *ValueTable) { v.QoSFingerprint++ },
		"vr":     func(v *ValueTable) { v.VR[3] += 1e-9 },
		"vd":     func(v *ValueTable) { v.VD[0] -= 1e-9 },
		"visits": func(v *ValueTable) { v.Visits[5]++ },
	}
	for name, mutate := range mutations {
		vt := validTable(6)
		mutate(vt)
		if vt.Fingerprint() == base {
			t.Errorf("%s change did not alter the fingerprint", name)
		}
	}
}

func TestApplyPrior(t *testing.T) {
	ag := NewAgent(5, 0.8)
	vt := validTable(5)
	if err := ag.ApplyPrior(vt); err != nil {
		t.Fatal(err)
	}
	for i := range vt.VR {
		if ag.VR[i] != vt.VR[i] || ag.VD[i] != vt.VD[i] || ag.Visits(i) != vt.Visits[i] {
			t.Fatalf("state %d not seeded from the table", i)
		}
	}
	// Mutating the table afterwards must not reach the agent.
	vt.VR[0] = 1234
	if ag.VR[0] == 1234 {
		t.Error("ApplyPrior aliased the table's slices")
	}
	if err := NewAgent(4, 0.8).ApplyPrior(validTable(5)); err == nil {
		t.Error("accepted a size mismatch")
	}
	if err := NewAgent(5, 0.9).ApplyPrior(validTable(5)); err == nil {
		t.Error("accepted a gamma mismatch")
	}
	bad := validTable(5)
	bad.Visits[0] = -3
	if err := NewAgent(5, 0.8).ApplyPrior(bad); err == nil {
		t.Error("accepted an invalid table")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	f := getFixture(t)
	ag := NewAgent(f.base.Len(), 0.7)
	if _, err := Simulate(agentParams(t, 0.5, 77, ag)); err != nil {
		t.Fatal(err)
	}
	snap := ag.Snapshot()
	if snap.Gamma != ag.Gamma || snap.Len() != f.base.Len() {
		t.Fatal("snapshot lost shape")
	}
	clone := NewAgent(f.base.Len(), 0.7)
	if err := clone.ApplyPrior(snap); err != nil {
		t.Fatal(err)
	}
	for i := range ag.VR {
		if clone.VR[i] != ag.VR[i] || clone.VD[i] != ag.VD[i] || clone.Visits(i) != ag.Visits(i) {
			t.Fatalf("state %d lost in snapshot round trip", i)
		}
	}
	// Snapshot copies: later learning must not mutate the snapshot.
	before := snap.VR[0]
	ag.step(0, -100, 0, 1)
	ag.flush()
	if snap.VR[0] != before {
		t.Error("snapshot aliased the agent's slices")
	}
}

func TestObserveMatchesStep(t *testing.T) {
	// Observe/Flush is the exported replay surface the cohort
	// aggregator drives; it must reproduce the internal step/flush
	// path bit-for-bit.
	a, b := NewAgent(4, 0.6), NewAgent(4, 0.6)
	seq := []struct {
		s      int
		rR, rD float64
		cycle  float64
	}{{0, -1, 0, 10}, {1, -2, 5, 500}, {2, -3, 1, 1100}, {0, -1, 0, 2100}}
	for _, e := range seq {
		a.step(e.s, e.rR, e.rD, e.cycle)
		if err := b.Observe(e.s, e.rR, e.rD, e.cycle); err != nil {
			t.Fatal(err)
		}
	}
	a.flush()
	b.Flush()
	if a.Episodes != b.Episodes {
		t.Fatalf("episodes %d vs %d", a.Episodes, b.Episodes)
	}
	for i := range a.VR {
		if a.VR[i] != b.VR[i] || a.VD[i] != b.VD[i] || a.Visits(i) != b.Visits(i) {
			t.Fatalf("state %d diverged between step and Observe", i)
		}
	}
	if err := b.Observe(4, 0, 0, 0); err == nil {
		t.Error("accepted out-of-range state")
	}
	if err := b.Observe(-1, 0, 0, 0); err == nil {
		t.Error("accepted negative state")
	}
}

func TestGammaZeroPriorPreservesURADecisions(t *testing.T) {
	// The inherited-prior counterpart of TestGammaZeroAgentSubsumesURA:
	// at gamma=0 the scorer ignores value terms entirely, so seeding an
	// agent with an arbitrary cohort prior must leave the decision
	// stream byte-identical to plain uRA. fleettest's TestABIdentityArm
	// pins the same identity fleet-wide.
	plain, err := Simulate(baseParams(t, 0.6, 21))
	if err != nil {
		t.Fatal(err)
	}
	f := getFixture(t)
	ag := NewAgent(f.base.Len(), 0)
	prior := validTable(f.base.Len())
	prior.Gamma = 0
	if err := ag.ApplyPrior(prior); err != nil {
		t.Fatal(err)
	}
	seeded, err := Simulate(agentParams(t, 0.6, 21, ag))
	if err != nil {
		t.Fatal(err)
	}
	if plain.TotalDRC != seeded.TotalDRC || plain.AvgEnergyMJ != seeded.AvgEnergyMJ ||
		plain.Reconfigs != seeded.Reconfigs {
		t.Errorf("gamma=0 with injected prior differs from uRA: %+v vs %+v", seeded, plain)
	}
}

func TestManagerApplyValuePrior(t *testing.T) {
	p, spec := managerParams(t)

	// No agent: uRA manager reports "not applied", no error.
	m, err := NewManager(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	vt := validTable(p.DB.Len())
	if applied, err := m.ApplyValuePrior(vt); applied || err != nil {
		t.Fatalf("uRA manager: applied=%v err=%v, want false,nil", applied, err)
	}

	// Gamma mismatch: expected in mixed fleets, also "not applied".
	p.Agent = NewAgent(p.DB.Len(), 0.5)
	m, err = NewManager(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if applied, err := m.ApplyValuePrior(vt); applied || err != nil {
		t.Fatalf("gamma mismatch: applied=%v err=%v, want false,nil", applied, err)
	}

	// Matching gamma: values land in the live agent.
	vt.Gamma = 0.5
	applied, err := m.ApplyValuePrior(vt)
	if err != nil || !applied {
		t.Fatalf("applied=%v err=%v, want true,nil", applied, err)
	}
	for i := range vt.VR {
		if p.Agent.VR[i] != vt.VR[i] || p.Agent.VD[i] != vt.VD[i] {
			t.Fatalf("state %d prior not applied through the manager", i)
		}
	}

	// A broken table is a real error even with a matching agent.
	bad := validTable(p.DB.Len())
	bad.Gamma = 0.5
	bad.Visits[0] = -1
	if applied, err := m.ApplyValuePrior(bad); applied || err == nil {
		t.Fatal("invalid table should fail loudly")
	}
}
