package fleet

import (
	"errors"
	"testing"

	"clrdse/internal/runtime"
)

// cohortTable builds a valid value table bound to the cohort's active
// database, with deterministic synthetic values.
func cohortTable(t *testing.T, reg *Registry, name string, version uint64, gamma float64) *runtime.ValueTable {
	t.Helper()
	db, fp, err := reg.ActiveSnapshot(name)
	if err != nil {
		t.Fatal(err)
	}
	vt := &runtime.ValueTable{
		Version: version, Epoch: version, Gamma: gamma,
		DBVersion: db.Version, DBFingerprint: fp,
		Devices: 3, Events: 300,
		VR:     make([]float64, db.Len()),
		VD:     make([]float64, db.Len()),
		Visits: make([]int, db.Len()),
	}
	for i := range vt.VR {
		vt.VR[i] = -float64(i+1) * 0.25
		vt.VD[i] = float64(i) * 0.125
		vt.Visits[i] = 5 + i
	}
	return vt
}

func TestValueTablePublishLifecycle(t *testing.T) {
	reg, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	st, err := reg.ValueTableStatus("red")
	if err != nil {
		t.Fatal(err)
	}
	if st.HasTable {
		t.Fatal("fresh cohort reports a table")
	}
	if vt, err := reg.ValueTable("red"); err != nil || vt != nil {
		t.Fatalf("fresh cohort table = %v, %v; want nil, nil", vt, err)
	}

	v1 := cohortTable(t, reg, "red", 1, 0.8)
	if err := reg.PublishValueTable("red", v1); err != nil {
		t.Fatal(err)
	}
	st, _ = reg.ValueTableStatus("red")
	if !st.HasTable || st.Version != 1 || st.Epoch != 1 || st.Gamma != 0.8 {
		t.Fatalf("status after publish: %+v", st)
	}
	if st.Fingerprint != v1.Fingerprint() {
		t.Error("status fingerprint does not match the published table")
	}

	// A publish must advance the version.
	if err := reg.PublishValueTable("red", cohortTable(t, reg, "red", 1, 0.8)); !errors.Is(err, ErrValueTableVersion) {
		t.Errorf("same-version publish: %v, want ErrValueTableVersion", err)
	}
	// A table bound to other database content is skew.
	skew := cohortTable(t, reg, "red", 2, 0.8)
	skew.DBFingerprint++
	if err := reg.PublishValueTable("red", skew); !errors.Is(err, ErrValueTableSkew) {
		t.Errorf("mismatched binding: %v, want ErrValueTableSkew", err)
	}
	wrongVer := cohortTable(t, reg, "red", 2, 0.8)
	wrongVer.DBVersion++
	if err := reg.PublishValueTable("red", wrongVer); !errors.Is(err, ErrValueTableSkew) {
		t.Errorf("mismatched db version: %v, want ErrValueTableSkew", err)
	}
	if err := reg.PublishValueTable("red", nil); err == nil {
		t.Error("accepted nil table")
	}
	if err := reg.PublishValueTable("ghost", v1); !errors.Is(err, ErrNoDatabase) {
		t.Errorf("unknown cohort: %v, want ErrNoDatabase", err)
	}

	// v2 displaces v1; rollback restores it, one step only.
	v2 := cohortTable(t, reg, "red", 2, 0.8)
	v2.VR[0] = -99
	if err := reg.PublishValueTable("red", v2); err != nil {
		t.Fatal(err)
	}
	st, _ = reg.ValueTableStatus("red")
	if st.Version != 2 || !st.HasPrevious || st.PreviousVersion != 1 {
		t.Fatalf("status after v2: %+v", st)
	}
	if err := reg.RollbackValueTable("red"); err != nil {
		t.Fatal(err)
	}
	st, _ = reg.ValueTableStatus("red")
	if st.Version != 1 || st.HasPrevious {
		t.Fatalf("status after rollback: %+v", st)
	}
	// Rolling back the first publish reverts to "no table".
	if err := reg.RollbackValueTable("red"); err != nil {
		t.Fatal(err)
	}
	st, _ = reg.ValueTableStatus("red")
	if st.HasTable {
		t.Fatalf("rollback past the first publish left a table: %+v", st)
	}
	if err := reg.RollbackValueTable("red"); !errors.Is(err, ErrNoValueTable) {
		t.Errorf("rollback with no table: %v, want ErrNoValueTable", err)
	}
}

func TestValueTableAdoptTotalOrder(t *testing.T) {
	reg, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	v1 := cohortTable(t, reg, "red", 1, 0.8)
	if err := reg.AdoptValueTable("red", v1); err != nil {
		t.Fatal(err)
	}
	// Idempotent: adopting the exact active table is a no-op.
	if err := reg.AdoptValueTable("red", v1); err != nil {
		t.Fatalf("re-adopt of the active table: %v", err)
	}
	// Same version, different content: higher fingerprint wins.
	div := cohortTable(t, reg, "red", 1, 0.8)
	div.VR[0] = -123
	winner, loser := div, v1
	if div.Fingerprint() < v1.Fingerprint() {
		winner, loser = v1, div
	}
	errAdopt := reg.AdoptValueTable("red", div)
	if winner == div && errAdopt != nil {
		t.Fatalf("winning same-version adopt refused: %v", errAdopt)
	}
	if winner == v1 && !errors.Is(errAdopt, ErrValueTableVersion) {
		t.Fatalf("losing same-version adopt accepted: %v", errAdopt)
	}
	active, _ := reg.ValueTable("red")
	if active.Fingerprint() != winner.Fingerprint() {
		t.Error("active table is not the total-order winner")
	}
	// A lower version never wins, regardless of fingerprint.
	v2 := cohortTable(t, reg, "red", 2, 0.8)
	if err := reg.AdoptValueTable("red", v2); err != nil {
		t.Fatal(err)
	}
	if err := reg.AdoptValueTable("red", loser); !errors.Is(err, ErrValueTableVersion) {
		t.Errorf("behind-version adopt: %v, want ErrValueTableVersion", err)
	}
}

func TestCohortPriorInheritanceAndJournalStamp(t *testing.T) {
	f := getFixture(t)
	reg, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	spec := looseSpec(f.red)
	gamma := 0.8

	// A device registered before any publish journals VTVersion 0,
	// then re-seeds lazily once a table is published.
	if _, err := reg.Register(DeviceParams{
		ID: "early", Database: "red", PRC: 0.5, Gamma: gamma, Initial: spec,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Decide("early", spec); err != nil {
		t.Fatal(err)
	}
	vt := cohortTable(t, reg, "red", 1, gamma)
	if err := reg.PublishValueTable("red", vt); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Decide("early", spec); err != nil {
		t.Fatal(err)
	}
	entries := reg.Decisions("early", 0)
	if len(entries) != 2 {
		t.Fatalf("journal holds %d entries, want 2", len(entries))
	}
	if entries[0].VTVersion != 0 {
		t.Errorf("pre-publish decision stamped vt v%d, want 0", entries[0].VTVersion)
	}
	if entries[1].VTVersion != 1 {
		t.Errorf("post-publish decision stamped vt v%d, want 1", entries[1].VTVersion)
	}

	// A device registered after the publish inherits at registration:
	// its very first decision is already stamped.
	if _, err := reg.Register(DeviceParams{
		ID: "cold", Database: "red", PRC: 0.5, Gamma: gamma, Initial: spec,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Decide("cold", spec); err != nil {
		t.Fatal(err)
	}
	if es := reg.Decisions("cold", 0); len(es) != 1 || es[0].VTVersion != 1 {
		t.Fatalf("cold-start first decision stamped vt v%d, want 1", es[0].VTVersion)
	}

	// uRA devices (no agent) never apply a prior and keep stamping 0.
	if _, err := reg.Register(DeviceParams{
		ID: "ura", Database: "red", PRC: 0.5, Initial: spec,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Decide("ura", spec); err != nil {
		t.Fatal(err)
	}
	if es := reg.Decisions("ura", 0); len(es) != 1 || es[0].VTVersion != 0 {
		t.Fatalf("uRA decision stamped vt v%d, want 0", es[0].VTVersion)
	}

	// Gamma mismatch: agent present but the table does not apply.
	if _, err := reg.Register(DeviceParams{
		ID: "mismatch", Database: "red", PRC: 0.5, Gamma: 0.5, Initial: spec,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Decide("mismatch", spec); err != nil {
		t.Fatal(err)
	}
	if es := reg.Decisions("mismatch", 0); len(es) != 1 || es[0].VTVersion != 0 {
		t.Fatalf("gamma-mismatched decision stamped vt v%d, want 0", es[0].VTVersion)
	}
}

func TestGammaZeroCohortPriorPreservesURAFleet(t *testing.T) {
	// The fleet-level γ=0 identity TestABIdentityArm pins: a fleet
	// of AuRA(γ=0) devices seeded from a published cohort table must
	// decide byte-identically to a plain uRA fleet on the same script.
	f := getFixture(t)
	script := deviceScript(f.red, 902, 60)
	spec := looseSpec(f.red)

	run := func(withAgent bool, publish bool) []string {
		reg, err := NewRegistry(fleetDatabases(t), 4)
		if err != nil {
			t.Fatal(err)
		}
		if publish {
			if err := reg.PublishValueTable("red", cohortTable(t, reg, "red", 1, 0)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := reg.Register(DeviceParams{
			ID: "dev", Database: "red", PRC: 0.5, WithAgent: withAgent, Initial: spec,
		}); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(script))
		for _, s := range script {
			dec, err := reg.Decide("dev", s)
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, decisionKey(t, dec))
		}
		return keys
	}

	ura := run(false, false)
	aura0 := run(true, true)
	for i := range ura {
		if ura[i] != aura0[i] {
			t.Fatalf("decision %d diverged: uRA %s vs AuRA(γ=0)+prior %s", i, ura[i], aura0[i])
		}
	}
}
