package fleet

// Pins for the per-version decide index: every manager of one database
// version shares one index and one dRC matrix, a swap builds
// exactly one index, and the decide path neither allocates per decision
// nor per registered device in proportion to the database size.

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"testing"

	"clrdse/internal/dse"
	"clrdse/internal/mapping"
	"clrdse/internal/platform"
	"clrdse/internal/relmodel"
	"clrdse/internal/rng"
	"clrdse/internal/runtime"
	"clrdse/internal/schedule"
	"clrdse/internal/taskgraph"
)

// countIndexBuilds counts index builds until the returned stop
// function restores the real builder.
func countIndexBuilds(t *testing.T) (count func() int, stop func()) {
	t.Helper()
	var mu sync.Mutex
	n := 0
	newIndex = func(db *dse.Database, space *mapping.Space, mat *mapping.DRCMatrix) (*runtime.Index, error) {
		mu.Lock()
		n++
		mu.Unlock()
		return runtime.NewIndex(db, space, mat)
	}
	return func() int {
			mu.Lock()
			defer mu.Unlock()
			return n
		}, func() {
			newIndex = runtime.NewIndex
		}
}

// sameIndex fails unless mgr decides on ix and ix's matrix.
func sameIndex(t *testing.T, what string, mgr *runtime.Manager, ix *runtime.Index) {
	t.Helper()
	if mgr == nil {
		t.Fatalf("%s: no manager", what)
	}
	if mgr.Index() != ix || mgr.Index().Matrix() != ix.Matrix() {
		t.Errorf("%s: manager decides on index %p (matrix %p), want the version's %p (matrix %p)",
			what, mgr.Index(), mgr.Index().Matrix(), ix, ix.Matrix())
	}
}

func TestManagersShareVersionIndex(t *testing.T) {
	f := getFixture(t)
	count, stop := countIndexBuilds(t)
	defer stop()
	reg, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := count(); got != 2 {
		t.Fatalf("NewRegistry over two databases built %d indexes, want 2", got)
	}
	specs := deviceScript(f.red, 41, 24)
	ids := []string{"ura-a", "ura-b", "aura-a", "aura-b"}
	for i, id := range ids {
		p := DeviceParams{ID: id, Database: "red", PRC: 0.5, Trigger: runtime.TriggerAlways, Initial: specs[0]}
		if i >= 2 {
			p.Gamma = 0.8
		}
		if _, err := reg.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	decideAll := func(from, to int) {
		t.Helper()
		for _, spec := range specs[from:to] {
			for _, id := range ids {
				if _, err := reg.Decide(id, spec); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	device := func(id string) *device {
		t.Helper()
		d, err := reg.lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	st := reg.dbs["red"]
	v0 := st.active.Load().index
	decideAll(1, 6)
	for _, id := range ids {
		sameIndex(t, id+" active", device(id).mgr.Load(), v0)
	}

	before := count()
	if err := reg.ProposeDatabase("red", versioned(f.red, 1)); err != nil {
		t.Fatal(err)
	}
	if got := count() - before; got != 1 {
		t.Errorf("ProposeDatabase built %d indexes, want 1", got)
	}
	v1 := st.candidate.Load().index
	if v1 == v0 {
		t.Fatal("candidate shares the active version's index")
	}
	decideAll(6, 12)
	for _, id := range ids {
		d := device(id)
		sameIndex(t, id+" active during shadow", d.mgr.Load(), v0)
		sameIndex(t, id+" shadow", d.shadow, v1)
	}

	if err := reg.CutoverDatabase("red"); err != nil {
		t.Fatal(err)
	}
	decideAll(12, 16)
	for _, id := range ids {
		d := device(id)
		sameIndex(t, id+" active after cutover", d.mgr.Load(), v1)
		sameIndex(t, id+" retained", d.prevMgr, v0)
	}

	// An imported manager boots on the importer's active version.
	bundle, err := reg.ExportRemove("aura-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.ImportDevice(bundle); err != nil {
		t.Fatal(err)
	}
	sameIndex(t, "imported", device("aura-a").mgr.Load(), v1)

	// Adopting the active database again is a no-op and builds nothing;
	// adopting a new version builds exactly one index.
	before = count()
	if err := reg.AdoptDatabase("red", versioned(f.red, 1)); err != nil {
		t.Fatal(err)
	}
	if got := count() - before; got != 0 {
		t.Errorf("idempotent AdoptDatabase built %d indexes, want 0", got)
	}
	if err := reg.AdoptDatabase("red", versioned(f.red, 2)); err != nil {
		t.Fatal(err)
	}
	if got := count() - before; got != 1 {
		t.Errorf("AdoptDatabase built %d indexes, want 1", got)
	}
	v2 := st.active.Load().index
	decideAll(16, 20)
	for _, id := range ids {
		sameIndex(t, id+" active after adopt", device(id).mgr.Load(), v2)
	}
	if got := count() - before; got != 1 {
		t.Errorf("deciding after the adopt built %d more indexes, want 0", got-1)
	}
}

func TestDecideAllocationPins(t *testing.T) {
	f := getFixture(t)
	reg, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	loose := looseSpec(f.red)
	specs := deviceScript(f.red, 43, 64)
	// pRC 0 under the always trigger runs the full filter and RET
	// kernel on every event and stays put whenever the current point
	// is feasible.
	if _, err := reg.Register(DeviceParams{ID: "stay", Database: "red", PRC: 0, Trigger: runtime.TriggerAlways, Initial: loose}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(DeviceParams{ID: "shadowed", Database: "red", PRC: 0.5, Trigger: runtime.TriggerAlways, Initial: specs[0]}); err != nil {
		t.Fatal(err)
	}
	if err := reg.ProposeDatabase("red", versioned(f.red, 1)); err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		for _, id := range []string{"stay", "shadowed"} {
			if _, err := reg.Decide(id, spec); err != nil {
				t.Fatal(err)
			}
		}
	}

	stay, _ := reg.lookup("stay")
	mgr := stay.mgr.Load()
	if dec := mgr.OnQoSChange(loose); dec.Reconfigured {
		t.Fatalf("pRC 0 device moved on a spec its point satisfies: %+v", dec)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if mgr.OnQoSChange(loose).Reconfigured {
			t.Fatal("stay decision moved")
		}
	}); allocs != 0 {
		t.Errorf("warmed-up uRA stay decision allocates %v times, want 0", allocs)
	}

	d, _ := reg.lookup("shadowed")
	if d.shadow == nil {
		t.Fatal("device holds no shadow manager with a candidate installed")
	}
	// Fresh specs each call, so the shadow decides instead of
	// replaying its one-entry memo.
	dec := runtime.Decision{To: d.mgr.Load().Current()}
	k := 0
	if allocs := testing.AllocsPerRun(200, func() {
		reg.shadowScore(d, 0, specs[k%len(specs)], dec)
		k++
	}); allocs != 0 {
		t.Errorf("warmed-up shadow decision allocates %v times, want 0", allocs)
	}
}

// randomDB returns n evaluated random mappings of a 40-task
// application as a database.
func randomDB(t *testing.T, n int) (*dse.Database, *mapping.Space) {
	t.Helper()
	plat := platform.Default()
	g, err := taskgraph.Generate(taskgraph.GenParams{Seed: 81, NumTasks: 40}, plat)
	if err != nil {
		t.Fatal(err)
	}
	space := &mapping.Space{Graph: g, Platform: plat, Catalogue: relmodel.DefaultCatalogue()}
	ev := &schedule.Evaluator{Space: space, Env: relmodel.DefaultEnv()}
	r := rng.New(5)
	db := &dse.Database{Name: "random"}
	for db.Len() < n {
		m := space.Random(r)
		res, err := ev.Evaluate(m)
		if err != nil {
			t.Fatal(err)
		}
		db.Points = append(db.Points, &dse.DesignPoint{
			ID: db.Len(), M: m,
			MakespanMs: res.MakespanMs, Reliability: res.Reliability, EnergyMJ: res.EnergyMJ,
			PeakPowerW: res.PeakPowerW, MTTFMs: res.MTTFMs,
		})
	}
	return db, space
}

// TestIdleDeviceBytesIndependentOfDatabaseSize registers the same idle
// uRA devices on an 80-point and a 500-point database: with the decide
// index shared per version, a registration allocates the same bytes on
// both.
func TestIdleDeviceBytesIndependentOfDatabaseSize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 500-point database")
	}
	big, space := randomDB(t, 500)
	small := &dse.Database{Name: "random", Points: big.Points[:80]}
	boot := looseSpec(small)
	registerBytes := func(db *dse.Database) uint64 {
		// Allocation noise from elsewhere in the process only adds
		// bytes, so the least of a few measurements is the
		// registrations' own.
		least := ^uint64(0)
		for attempt := 0; attempt < 3; attempt++ {
			reg, err := NewRegistry([]NamedDatabase{{Name: "db", DB: db, Space: space}}, 4)
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]string, 64)
			for i := range ids {
				ids[i] = fmt.Sprintf("idle-%02d", i)
			}
			var before, after goruntime.MemStats
			goruntime.GC()
			goruntime.ReadMemStats(&before)
			for _, id := range ids {
				if _, err := reg.Register(DeviceParams{ID: id, Database: "db", PRC: 0.5, Trigger: runtime.TriggerOnViolation, Initial: boot}); err != nil {
					t.Fatal(err)
				}
			}
			goruntime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	b80, b500 := registerBytes(small), registerBytes(big)
	if b80 != b500 {
		t.Errorf("64 idle uRA registrations allocate %d B on 80 points and %d B on 500 points; want equal", b80, b500)
	}
}
