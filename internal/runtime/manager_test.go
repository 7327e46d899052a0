package runtime

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"clrdse/internal/mapping"
	"clrdse/internal/rng"
)

// newSpecStreamRNG mirrors Simulate's derivation of the specification
// RNG — the event RNG's Split(1) consumes parent state before the spec
// RNG's Split(2) — so tests can replay identical streams.
func newSpecStreamRNG(seed int64) *rng.Source {
	root := rng.New(seed)
	root.Split(1)
	return root.Split(2)
}

func managerParams(t *testing.T) (ManagerParams, QoSSpec) {
	f := getFixture(t)
	q := ModelFromDatabase(f.base)
	return ManagerParams{
		DB:    f.base,
		Space: f.problem.Space,
		PRC:   0.5,
	}, QoSSpec{SMaxMs: q.HiS, FMin: q.LoF}
}

func TestManagerBootsFeasible(t *testing.T) {
	p, spec := managerParams(t)
	m, err := NewManager(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !m.CurrentPoint().Feasible(spec.SMaxMs, spec.FMin) {
		t.Error("boot point infeasible for a loose spec")
	}
}

func TestManagerMatchesSimulatorDecisions(t *testing.T) {
	// Replaying one simulated event stream through the Manager must
	// reproduce the simulator's transition sequence exactly.
	f := getFixture(t)
	p := baseParams(t, 0.5, 71)
	p.Cycles = 20_000
	p.TraceLen = 1 << 20
	p.QoS = ModelFromDatabase(f.base)
	sim, err := Simulate(p)
	if err != nil {
		t.Fatal(err)
	}

	// Regenerate the identical spec stream the simulator saw.
	// (Same derivation as Simulate: root seed -> Split(2).)
	specRNG := newSpecStreamRNG(p.Seed)
	stream := p.QoS.Stream()
	bootSpec := stream.Next(specRNG)

	mgr, err := NewManager(ManagerParams{
		DB: f.base, Space: f.problem.Space, PRC: 0.5, Trigger: p.Trigger,
	}, bootSpec)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range sim.Trace {
		d := mgr.OnQoSChange(e.Spec)
		if d.To != e.Point {
			t.Fatalf("event %d: manager chose %d, simulator chose %d", i, d.To, e.Point)
		}
		if d.Reconfigured != e.Reconfigured {
			t.Fatalf("event %d: reconfigured mismatch", i)
		}
		if math.Abs(d.Cost.Total()-e.DRC) > 1e-9 {
			t.Fatalf("event %d: cost %v vs %v", i, d.Cost.Total(), e.DRC)
		}
	}
}

func TestManagerPlansRealiseTransitions(t *testing.T) {
	f := getFixture(t)
	p, spec := managerParams(t)
	mgr, err := NewManager(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Force a transition by demanding the most reliable point.
	maxF := 0.0
	for _, pt := range f.base.Points {
		if pt.Reliability > maxF {
			maxF = pt.Reliability
		}
	}
	d := mgr.OnQoSChange(QoSSpec{SMaxMs: spec.SMaxMs, FMin: maxF})
	if d.Reconfigured {
		planCost := 0.0
		for _, a := range d.Plan {
			planCost += a.CostMs
		}
		if planCost != d.Cost.Total() {
			t.Errorf("plan cost %v != decision cost %v", planCost, d.Cost.Total())
		}
		if !strings.Contains(d.Describe(), "reconfigure") {
			t.Errorf("describe = %q", d.Describe())
		}
	} else if !strings.Contains(d.Describe(), "stay") {
		t.Errorf("describe = %q", d.Describe())
	}
	if mgr.Current() != d.To {
		t.Error("manager state did not advance")
	}
}

func TestManagerValidation(t *testing.T) {
	_, spec := managerParams(t)
	if _, err := NewManager(ManagerParams{}, spec); err == nil {
		t.Error("accepted empty params")
	}
}

func TestManagerWithAgentLearns(t *testing.T) {
	f := getFixture(t)
	p, spec := managerParams(t)
	p.Agent = NewAgentForDB(f.base, 0.8, 0)
	p.Trigger = TriggerOnViolation
	mgr, err := NewManager(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	q := ModelFromDatabase(f.base)
	r := newSpecStreamRNG(91)
	stream := q.Stream()
	for i := 0; i < 300; i++ {
		mgr.OnQoSChange(stream.Next(r))
	}
	if p.Agent.Episodes == 0 {
		t.Error("agent completed no episodes over 300 events")
	}
}

// TestManagerDecideIsOnQoSChangeWithoutPlan holds Decide to
// OnQoSChange: two AuRA managers fed one stream choose, price and learn
// identically; Decide leaves the plan out, and the index plans it back
// action for action.
func TestManagerDecideIsOnQoSChangeWithoutPlan(t *testing.T) {
	f := getFixture(t)
	boot := func() *Manager {
		p, spec := managerParams(t)
		p.Agent = NewAgentForDB(f.base, 0.8, 0)
		p.Trigger = TriggerAlways
		mgr, err := NewManager(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		return mgr
	}
	planned, priced := boot(), boot()
	q := ModelFromDatabase(f.base)
	r := newSpecStreamRNG(93)
	stream := q.Stream()
	var plan []mapping.Action
	reconfigs := 0
	for i := 0; i < 400; i++ {
		spec := stream.Next(r)
		want := planned.OnQoSChange(spec)
		got, _ := priced.Decide(spec, nil)
		if got.Plan != nil {
			t.Fatalf("event %d: Decide returned a plan", i)
		}
		plan = priced.Index().AppendPlan(plan[:0], got.From, got.To)
		if len(plan) == 0 {
			plan = nil
		}
		got.Plan = plan
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("event %d: Decide plus the index's plan = %+v, OnQoSChange = %+v", i, got, want)
		}
		if got.Reconfigured {
			reconfigs++
		}
	}
	if reconfigs == 0 {
		t.Fatal("no reconfiguration in 400 events")
	}
	if planned.Events() != priced.Events() || planned.Current() != priced.Current() {
		t.Fatalf("managers drifted apart: (%d events, point %d) vs (%d, %d)",
			planned.Events(), planned.Current(), priced.Events(), priced.Current())
	}
}

func TestManagerConcurrentUse(t *testing.T) {
	// Hammer one manager from many goroutines; under -race this proves
	// the documented concurrency guarantee, and the event counter must
	// account for every call regardless of interleaving.
	f := getFixture(t)
	p, spec := managerParams(t)
	p.Agent = NewAgentForDB(f.base, 0.8, 0)
	p.Trigger = TriggerOnViolation
	mgr, err := NewManager(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	q := ModelFromDatabase(f.base)
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := newSpecStreamRNG(int64(1000 + w))
			stream := q.Stream()
			for i := 0; i < perWorker; i++ {
				d := mgr.OnQoSChange(stream.Next(r))
				if d.To < 0 || d.To >= f.base.Len() {
					t.Errorf("decision to out-of-range point %d", d.To)
					return
				}
				mgr.Current()
				mgr.CurrentPoint()
			}
		}(w)
	}
	wg.Wait()
	if got := mgr.events; got != workers*perWorker {
		t.Errorf("event counter = %d, want %d", got, workers*perWorker)
	}
}

func TestManagerHypervolumePolicy(t *testing.T) {
	f := getFixture(t)
	q := ModelFromDatabase(f.base)
	mgr, err := NewManager(ManagerParams{
		DB:     f.base,
		Space:  f.problem.Space,
		Policy: PolicyHypervolume,
	}, QoSSpec{SMaxMs: q.HiS, FMin: q.LoF})
	if err != nil {
		t.Fatal(err)
	}
	// With the hyper-volume policy the winner shifts with the spec, so
	// a sequence of distinct specs should trigger reconfigurations.
	r := newSpecStreamRNG(97)
	stream := q.Stream()
	moves := 0
	for i := 0; i < 100; i++ {
		if mgr.OnQoSChange(stream.Next(r)).Reconfigured {
			moves++
		}
	}
	if moves == 0 {
		t.Error("hypervolume-policy manager never reconfigured over 100 changes")
	}
}
