package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"clrdse/internal/dse"
	"clrdse/internal/ga"
	"clrdse/internal/mapping"
	"clrdse/internal/platform"
	"clrdse/internal/relmodel"
	"clrdse/internal/rng"
	"clrdse/internal/runtime"
	"clrdse/internal/taskgraph"
)

// fixture builds one real design-time result shared by the fleet
// tests (building it per test would dominate the suite's runtime).
type fixture struct {
	problem *dse.Problem
	base    *dse.Database
	red     *dse.Database
}

var (
	fixOnce sync.Once
	fix     fixture
	fixErr  error
)

func getFixture(t testing.TB) fixture {
	t.Helper()
	fixOnce.Do(func() {
		plat := platform.Default()
		g, err := taskgraph.Generate(taskgraph.GenParams{Seed: 51, NumTasks: 20}, plat)
		if err != nil {
			fixErr = err
			return
		}
		prob := &dse.Problem{
			Space:  &mapping.Space{Graph: g, Platform: plat, Catalogue: relmodel.DefaultCatalogue()},
			Env:    relmodel.DefaultEnv(),
			SMaxMs: g.PeriodMs,
			FMin:   0.90,
		}
		base, err := dse.RunBase(prob, ga.Params{PopSize: 28, Generations: 12, Seed: 1})
		if err != nil {
			fixErr = err
			return
		}
		red, err := dse.RunReD(prob, base, dse.ReDParams{
			GA: ga.Params{PopSize: 16, Generations: 8, Seed: 2}, MaxExtraPerSeed: 2,
		})
		if err != nil {
			fixErr = err
			return
		}
		fix = fixture{problem: prob, base: base, red: red}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fix
}

// fleetDatabases returns the fixture as the registry's decision bases.
func fleetDatabases(t testing.TB) []NamedDatabase {
	f := getFixture(t)
	return []NamedDatabase{
		{Name: "red", DB: f.red, Space: f.problem.Space},
		{Name: "based", DB: f.base, Space: f.problem.Space},
	}
}

// looseSpec returns a specification every point of the database
// satisfies.
func looseSpec(db *dse.Database) runtime.QoSSpec {
	n := NamedDatabase{DB: db}
	_, maxS, minF, _ := n.Envelope()
	return runtime.QoSSpec{SMaxMs: maxS, FMin: minF}
}

func TestRegistryLifecycle(t *testing.T) {
	f := getFixture(t)
	reg, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	info, err := reg.Register(DeviceParams{
		ID: "sat-1", Database: "red", PRC: 0.4,
		Trigger: runtime.TriggerOnViolation, Initial: looseSpec(f.red),
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Point < 0 || info.Point >= f.red.Len() {
		t.Fatalf("boot point %d out of range", info.Point)
	}
	if reg.Len() != 1 {
		t.Fatalf("Len = %d, want 1", reg.Len())
	}

	// Demand the most reliable point to force activity.
	q := runtime.ModelFromDatabase(f.red)
	dec, err := reg.Decide("sat-1", runtime.QoSSpec{SMaxMs: q.HiS, FMin: q.HiF})
	if err != nil {
		t.Fatal(err)
	}
	if dec.To < 0 || dec.To >= f.red.Len() {
		t.Fatalf("decision to point %d out of range", dec.To)
	}
	got, err := reg.Get("sat-1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Decisions != 1 {
		t.Errorf("stats decisions = %d, want 1", got.Stats.Decisions)
	}
	if got.Point != dec.To {
		t.Errorf("snapshot point %d != decision point %d", got.Point, dec.To)
	}
	if reg.DecisionCount() != 1 {
		t.Errorf("fleet decision counter = %d, want 1", reg.DecisionCount())
	}

	if err := reg.Remove("sat-1"); err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 0 {
		t.Errorf("Len after remove = %d, want 0", reg.Len())
	}
	if _, err := reg.Get("sat-1"); !errors.Is(err, ErrNoDevice) {
		t.Errorf("Get after remove = %v, want ErrNoDevice", err)
	}
}

func TestRegistryErrors(t *testing.T) {
	f := getFixture(t)
	reg, err := NewRegistry(fleetDatabases(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := looseSpec(f.red)
	if _, err := reg.Register(DeviceParams{ID: "d", Database: "nope", Initial: spec}); !errors.Is(err, ErrNoDatabase) {
		t.Errorf("unknown database: %v, want ErrNoDatabase", err)
	}
	if _, err := reg.Register(DeviceParams{Database: "red", Initial: spec}); err == nil {
		t.Error("accepted empty device ID")
	}
	// IDs no per-device route could address: a slash or "%" changes the
	// path, "?" and "#" end it, control bytes cannot travel in a URL,
	// and ServeMux redirects dot segments away.
	for _, id := range []string{"a/b", "a%b", "a b", "a?b", "a#b", ".", "..", "a\tb", "a\x00b", "a\x1fb", "a\x7fb"} {
		if _, err := reg.Register(DeviceParams{ID: id, Database: "red", Initial: spec}); err == nil {
			t.Errorf("accepted device ID %q", id)
		}
	}
	if _, err := reg.Register(DeviceParams{ID: "d", Database: "red", PRC: 1.5, Initial: spec}); err == nil {
		t.Error("accepted pRC outside [0,1]")
	}
	if _, err := reg.Register(DeviceParams{ID: "d", Database: "red", Gamma: 1, Initial: spec}); err == nil {
		t.Error("accepted gamma = 1")
	}
	if _, err := reg.Register(DeviceParams{ID: "d", Database: "red", Initial: spec}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(DeviceParams{ID: "d", Database: "red", Initial: spec}); !errors.Is(err, ErrDeviceExists) {
		t.Errorf("duplicate registration: %v, want ErrDeviceExists", err)
	}
	if _, err := reg.Decide("ghost", spec); !errors.Is(err, ErrNoDevice) {
		t.Errorf("decide on unknown device: %v, want ErrNoDevice", err)
	}
	if err := reg.Remove("ghost"); !errors.Is(err, ErrNoDevice) {
		t.Errorf("remove unknown device: %v, want ErrNoDevice", err)
	}
}

func TestNewRegistryValidatesDatabases(t *testing.T) {
	f := getFixture(t)
	if _, err := NewRegistry(nil, 0); err == nil {
		t.Error("accepted empty database list")
	}
	if _, err := NewRegistry([]NamedDatabase{{Name: "", DB: f.red, Space: f.problem.Space}}, 0); err == nil {
		t.Error("accepted unnamed database")
	}
	if _, err := NewRegistry([]NamedDatabase{
		{Name: "a", DB: f.red, Space: f.problem.Space},
		{Name: "a", DB: f.base, Space: f.problem.Space},
	}, 0); err == nil {
		t.Error("accepted duplicate database names")
	}
	corrupt := &dse.Database{Name: "c", Points: []*dse.DesignPoint{{ID: 3, M: f.red.Points[0].M}}}
	if _, err := NewRegistry([]NamedDatabase{{Name: "c", DB: corrupt, Space: f.problem.Space}}, 0); err == nil {
		t.Error("accepted corrupt database (sparse IDs)")
	}
}

// deviceScript precomputes one device's deterministic QoS sequence.
func deviceScript(db *dse.Database, seed int64, events int) []runtime.QoSSpec {
	q := runtime.ModelFromDatabase(db)
	src := rng.New(seed)
	stream := q.Stream()
	specs := make([]runtime.QoSSpec, events)
	for i := range specs {
		specs[i] = stream.Next(src)
	}
	return specs
}

// decisionKey serialises a decision for byte-level comparison.
func decisionKey(t testing.TB, d runtime.Decision) string {
	t.Helper()
	b, err := json.Marshal(decisionJSON("x", d))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestConcurrentDecisionsMatchSerial is the fleet's core correctness
// claim: concurrent registration and QoS traffic over many devices —
// with deliberately colliding registration attempts — must produce,
// per device, the byte-identical decision sequence of a serial run on
// the same seeds, and no data races under -race.
func TestConcurrentDecisionsMatchSerial(t *testing.T) {
	f := getFixture(t)
	const devices, events = 24, 40
	scripts := make([][]runtime.QoSSpec, devices)
	for d := range scripts {
		scripts[d] = deviceScript(f.red, int64(100+d), events)
	}
	boot := looseSpec(f.red)
	params := func(d int) DeviceParams {
		return DeviceParams{
			ID:       fmt.Sprintf("dev-%d", d),
			Database: "red",
			PRC:      0.5,
			Trigger:  runtime.TriggerOnViolation,
			Gamma:    0.8,
			Initial:  boot,
		}
	}

	// Serial reference: one registry, one goroutine.
	serial := make([][]string, devices)
	regA, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < devices; d++ {
		if _, err := regA.Register(params(d)); err != nil {
			t.Fatal(err)
		}
		for _, spec := range scripts[d] {
			dec, err := regA.Decide(fmt.Sprintf("dev-%d", d), spec)
			if err != nil {
				t.Fatal(err)
			}
			serial[d] = append(serial[d], decisionKey(t, dec))
		}
	}

	// Concurrent run: every device races registration from two
	// goroutines (exactly one must win), then streams its script from
	// its own goroutine while all other devices do the same.
	regB, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	concurrent := make([][]string, devices)
	dup := make([]int, devices) // duplicate-registration failures
	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		wg.Add(2)
		// The colliding registrar: same ID, racing the worker's own
		// registration.
		go func(d int) {
			defer wg.Done()
			if _, err := regB.Register(params(d)); err != nil {
				if !errors.Is(err, ErrDeviceExists) {
					t.Errorf("dev-%d: unexpected registration error: %v", d, err)
				}
				dup[d]++
			}
		}(d)
		go func(d int) {
			defer wg.Done()
			if _, err := regB.Register(params(d)); err != nil {
				if !errors.Is(err, ErrDeviceExists) {
					t.Errorf("dev-%d: unexpected registration error: %v", d, err)
					return
				}
				dup[d]++
			}
			for _, spec := range scripts[d] {
				dec, err := regB.Decide(fmt.Sprintf("dev-%d", d), spec)
				if err != nil {
					t.Errorf("dev-%d: %v", d, err)
					return
				}
				concurrent[d] = append(concurrent[d], decisionKey(t, dec))
			}
		}(d)
	}
	wg.Wait()

	for d := 0; d < devices; d++ {
		if dup[d] != 1 {
			t.Errorf("dev-%d: %d duplicate-registration failures, want exactly 1", d, dup[d])
		}
		if len(concurrent[d]) != len(serial[d]) {
			t.Fatalf("dev-%d: %d concurrent decisions vs %d serial", d, len(concurrent[d]), len(serial[d]))
		}
		for i := range serial[d] {
			if concurrent[d][i] != serial[d][i] {
				t.Fatalf("dev-%d event %d: concurrent decision %s != serial %s",
					d, i, concurrent[d][i], serial[d][i])
			}
		}
	}
	if got := regB.DecisionCount(); got != devices*events {
		t.Errorf("decision counter = %d, want %d", got, devices*events)
	}
}

func TestParseTriggerAndPolicy(t *testing.T) {
	if tr, err := ParseTrigger(""); err != nil || tr != runtime.TriggerAlways {
		t.Errorf("empty trigger -> %v, %v", tr, err)
	}
	if tr, err := ParseTrigger("on-violation"); err != nil || tr != runtime.TriggerOnViolation {
		t.Errorf("on-violation -> %v, %v", tr, err)
	}
	if _, err := ParseTrigger("sometimes"); err == nil {
		t.Error("accepted unknown trigger")
	}
	if p, err := ParsePolicy("hypervolume"); err != nil || p != runtime.PolicyHypervolume {
		t.Errorf("hypervolume -> %v, %v", p, err)
	}
	if _, err := ParsePolicy("greedy"); err == nil {
		t.Error("accepted unknown policy")
	}
}
