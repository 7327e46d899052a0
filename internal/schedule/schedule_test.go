package schedule

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"clrdse/internal/mapping"
	"clrdse/internal/platform"
	"clrdse/internal/relmodel"
	"clrdse/internal/rng"
	"clrdse/internal/taskgraph"
)

func testEvaluator(t *testing.T, n int) *Evaluator {
	t.Helper()
	plat := platform.Default()
	g, err := taskgraph.Generate(taskgraph.GenParams{Seed: 21, NumTasks: n}, plat)
	if err != nil {
		t.Fatal(err)
	}
	return &Evaluator{
		Space: &mapping.Space{Graph: g, Platform: plat, Catalogue: relmodel.DefaultCatalogue()},
		Env:   relmodel.DefaultEnv(),
	}
}

func chainEvaluator(t *testing.T) (*Evaluator, *mapping.Mapping) {
	t.Helper()
	plat := platform.Default()
	imp := func() []taskgraph.Impl {
		return []taskgraph.Impl{{ID: 0, PEType: 1, BaseExTimeMs: 10, BasePowerW: 1, BinaryKB: 32, BitstreamID: -1}}
	}
	g := &taskgraph.Graph{
		Name: "chain3",
		Tasks: []taskgraph.Task{
			{ID: 0, Name: "a", Criticality: 1.0 / 3, Impls: imp()},
			{ID: 1, Name: "b", Criticality: 1.0 / 3, Impls: imp()},
			{ID: 2, Name: "c", Criticality: 1.0 / 3, Impls: imp()},
		},
		Edges: []taskgraph.Edge{
			{ID: 0, Src: 0, Dst: 1, CommTimeMs: 5},
			{ID: 1, Src: 1, Dst: 2, CommTimeMs: 5},
		},
		PeriodMs: 100,
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	ev := &Evaluator{
		Space: &mapping.Space{Graph: g, Platform: plat, Catalogue: relmodel.DefaultCatalogue()},
		Env:   relmodel.DefaultEnv(),
	}
	m := &mapping.Mapping{Genes: []mapping.Gene{
		{PE: 1, Impl: 0}, {PE: 1, Impl: 0}, {PE: 1, Impl: 0},
	}}
	return ev, m
}

func TestChainSamePENoCommCost(t *testing.T) {
	ev, m := chainEvaluator(t)
	res, err := ev.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	// All three on PE 1 (speed 1.0): 3 x 10ms back to back, no comm.
	if math.Abs(res.MakespanMs-30) > 1e-9 {
		t.Errorf("makespan = %v, want 30", res.MakespanMs)
	}
	if !res.MeetsPeriod {
		t.Error("30ms should meet the 100ms period")
	}
}

func TestChainCrossPEPaysComm(t *testing.T) {
	ev, m := chainEvaluator(t)
	m.Genes[1].PE = 2 // same type (mid), different PE
	res, err := ev.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	// 10 + 5 + 10 + 5 + 10 = 40.
	if math.Abs(res.MakespanMs-40) > 1e-9 {
		t.Errorf("makespan = %v, want 40 with comm delays", res.MakespanMs)
	}
}

func TestEnergyIsSumOfTaskEnergies(t *testing.T) {
	ev, m := chainEvaluator(t)
	res, err := ev.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, s := range res.Slots {
		want += s.Metrics.AvgExTMs * s.Metrics.PowerW
	}
	if math.Abs(res.EnergyMJ-want) > 1e-12 {
		t.Errorf("energy = %v, want %v", res.EnergyMJ, want)
	}
}

func TestPeakPowerSerialVsParallel(t *testing.T) {
	ev, m := chainEvaluator(t)
	serial, err := ev.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	// Serial chain on one PE: peak power = single task power.
	if math.Abs(serial.PeakPowerW-serial.Slots[0].Metrics.PowerW) > 1e-9 {
		t.Errorf("serial peak = %v, want %v", serial.PeakPowerW, serial.Slots[0].Metrics.PowerW)
	}
	// Remove dependencies to force parallel execution on two PEs.
	ev.Space.Graph.Edges = nil
	m.Genes[1].PE = 2
	par, err := ev.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	if par.PeakPowerW <= serial.PeakPowerW {
		t.Errorf("parallel peak %v should exceed serial %v", par.PeakPowerW, serial.PeakPowerW)
	}
}

func TestReliabilityIsCriticalityWeighted(t *testing.T) {
	ev, m := chainEvaluator(t)
	res, err := ev.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i, s := range res.Slots {
		want += ev.Space.Graph.Tasks[i].Criticality * (1 - s.Metrics.ErrProb)
	}
	if math.Abs(res.Reliability-want) > 1e-12 {
		t.Errorf("reliability = %v, want %v", res.Reliability, want)
	}
}

func TestCLRProtectionRaisesReliabilityCostsEnergy(t *testing.T) {
	ev, m := chainEvaluator(t)
	plain, err := ev.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	prot := m.Clone()
	for i := range prot.Genes {
		prot.Genes[i].CLR = relmodel.Config{HW: 2, SSW: 2, ASW: 3}
	}
	protRes, err := ev.Evaluate(prot)
	if err != nil {
		t.Fatal(err)
	}
	if protRes.Reliability <= plain.Reliability {
		t.Errorf("full CLR reliability %v <= unprotected %v", protRes.Reliability, plain.Reliability)
	}
	if protRes.EnergyMJ <= plain.EnergyMJ {
		t.Errorf("full CLR energy %v <= unprotected %v", protRes.EnergyMJ, plain.EnergyMJ)
	}
	if protRes.MakespanMs <= plain.MakespanMs {
		t.Errorf("full CLR makespan %v <= unprotected %v", protRes.MakespanMs, plain.MakespanMs)
	}
}

func TestPriorityBreaksTies(t *testing.T) {
	ev, m := chainEvaluator(t)
	// Independent tasks competing for one PE: priority decides order.
	ev.Space.Graph.Edges = nil
	m.Genes[0].Prio, m.Genes[1].Prio, m.Genes[2].Prio = 1, 5, 3
	res, err := ev.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Slots[1].StartMs < res.Slots[2].StartMs && res.Slots[2].StartMs < res.Slots[0].StartMs) {
		t.Errorf("start order should follow priority: %v / %v / %v",
			res.Slots[0].StartMs, res.Slots[1].StartMs, res.Slots[2].StartMs)
	}
}

func TestDependenciesRespected(t *testing.T) {
	ev := testEvaluator(t, 50)
	r := rng.New(2)
	for trial := 0; trial < 20; trial++ {
		m := ev.Space.Random(r)
		res, err := ev.Evaluate(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ev.Space.Graph.Edges {
			src, dst := res.Slots[e.Src], res.Slots[e.Dst]
			min := src.EndMs
			if m.Genes[e.Src].PE != m.Genes[e.Dst].PE {
				min += e.CommTimeMs
			}
			if dst.StartMs+1e-9 < min {
				t.Fatalf("edge %d->%d violated: dst starts %v < %v", e.Src, e.Dst, dst.StartMs, min)
			}
		}
	}
}

func TestNoPEOverlap(t *testing.T) {
	ev := testEvaluator(t, 60)
	r := rng.New(3)
	for trial := 0; trial < 20; trial++ {
		m := ev.Space.Random(r)
		res, err := ev.Evaluate(m)
		if err != nil {
			t.Fatal(err)
		}
		byPE := map[int][]Slot{}
		for _, s := range res.Slots {
			byPE[s.PE] = append(byPE[s.PE], s)
		}
		for pe, slots := range byPE {
			for i := range slots {
				for j := range slots {
					if i == j {
						continue
					}
					a, b := slots[i], slots[j]
					if a.StartMs < b.EndMs-1e-9 && b.StartMs < a.EndMs-1e-9 {
						t.Fatalf("PE %d: tasks %d and %d overlap", pe, a.Task, b.Task)
					}
				}
			}
		}
	}
}

func TestBitstreamSwapDelaysAccelTasks(t *testing.T) {
	plat := platform.Default()
	cat := relmodel.DefaultCatalogue()
	mk := func(bs int) []taskgraph.Impl {
		return []taskgraph.Impl{
			{ID: 0, PEType: 3, BaseExTimeMs: 10, BasePowerW: 1, BitstreamID: bs},
		}
	}
	g := &taskgraph.Graph{
		Name: "accel-swap",
		Tasks: []taskgraph.Task{
			{ID: 0, Name: "a", Criticality: 0.5, Impls: mk(1)},
			{ID: 1, Name: "b", Criticality: 0.5, Impls: mk(2)},
		},
		PeriodMs: 200,
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	ev := &Evaluator{
		Space: &mapping.Space{Graph: g, Platform: plat, Catalogue: cat},
		Env:   relmodel.DefaultEnv(),
	}
	// Same PRR-backed PE: second task pays a bitstream swap.
	same := &mapping.Mapping{Genes: []mapping.Gene{{PE: 5, Impl: 0}, {PE: 5, Impl: 0, Prio: -1}}}
	sameRes, err := ev.Evaluate(same)
	if err != nil {
		t.Fatal(err)
	}
	// Different PRRs: no swap.
	diff := &mapping.Mapping{Genes: []mapping.Gene{{PE: 5, Impl: 0}, {PE: 6, Impl: 0}}}
	diffRes, err := ev.Evaluate(diff)
	if err != nil {
		t.Fatal(err)
	}
	swap := plat.BitstreamLoadMs(plat.PRRs[0].BitstreamKB)
	if got := sameRes.MakespanMs - 2*sameRes.Slots[0].Metrics.AvgExTMs; math.Abs(got-swap) > 1e-9 {
		t.Errorf("same-PRR swap overhead = %v, want %v", got, swap)
	}
	if diffRes.MakespanMs >= sameRes.MakespanMs {
		t.Errorf("separate PRRs (%v) should beat shared PRR (%v)", diffRes.MakespanMs, sameRes.MakespanMs)
	}
}

func TestEvaluateRejectsInvalidMapping(t *testing.T) {
	ev := testEvaluator(t, 10)
	m := ev.Space.Random(rng.New(4))
	m.Genes[0].PE = 99
	if _, err := ev.Evaluate(m); err == nil {
		t.Error("Evaluate accepted invalid mapping")
	}
}

// TestTimelineRejectsNonFiniteDurations requires Timeline to refuse a
// duration that is not positive and finite, naming the task, and to
// accept a positive finite one.
func TestTimelineRejectsNonFiniteDurations(t *testing.T) {
	ev := testEvaluator(t, 10)
	m := ev.Space.Random(rng.New(4))
	base, err := ev.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		d    float64
		ok   bool
	}{
		{"nan", math.NaN(), false},
		{"+inf", math.Inf(1), false},
		{"-inf", math.Inf(-1), false},
		{"zero", 0, false},
		{"negative", -1, false},
		{"positive", 2.5, true},
	} {
		durs := make([]float64, len(m.Genes))
		for i, s := range base.Slots {
			durs[i] = s.Metrics.AvgExTMs
		}
		const task = 3
		durs[task] = tc.d
		res, err := ev.Timeline(m, durs)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: Timeline rejected duration %v: %v", tc.name, tc.d, err)
		case tc.ok && (math.IsNaN(res.MakespanMs) || math.IsInf(res.MakespanMs, 0)):
			t.Errorf("%s: makespan %v", tc.name, res.MakespanMs)
		case !tc.ok && err == nil:
			t.Errorf("%s: Timeline accepted duration %v (makespan %v)", tc.name, tc.d, res.MakespanMs)
		case !tc.ok && !strings.Contains(err.Error(), "task 3"):
			t.Errorf("%s: error %q does not name task %d", tc.name, err, task)
		}
	}
}

func TestMTTFIsMinimum(t *testing.T) {
	ev, m := chainEvaluator(t)
	res, err := ev.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	min := math.Inf(1)
	for _, s := range res.Slots {
		min = math.Min(min, s.Metrics.MTTFMs)
	}
	if res.MTTFMs != min {
		t.Errorf("MTTF = %v, want min %v", res.MTTFMs, min)
	}
}

// Property: for arbitrary valid mappings the system metrics satisfy
// basic sanity: makespan >= longest task, 0 <= F <= 1, energy > 0,
// peak power at least the largest single task power and no more than
// the sum of all task powers.
func TestQuickSystemMetricInvariants(t *testing.T) {
	ev := testEvaluator(t, 30)
	f := func(seed uint32) bool {
		m := ev.Space.Random(rng.New(int64(seed)))
		res, err := ev.Evaluate(m)
		if err != nil {
			return false
		}
		longest, maxP, sumP := 0.0, 0.0, 0.0
		for _, s := range res.Slots {
			longest = math.Max(longest, s.Metrics.AvgExTMs)
			maxP = math.Max(maxP, s.Metrics.PowerW)
			sumP += s.Metrics.PowerW
		}
		return res.MakespanMs >= longest &&
			res.Reliability >= 0 && res.Reliability <= 1 &&
			res.EnergyMJ > 0 &&
			res.PeakPowerW >= maxP-1e-9 && res.PeakPowerW <= sumP+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: scheduling is deterministic — same mapping, same result.
func TestQuickDeterministicSchedule(t *testing.T) {
	ev := testEvaluator(t, 25)
	f := func(seed uint32) bool {
		m := ev.Space.Random(rng.New(int64(seed)))
		a, err1 := ev.Evaluate(m)
		b, err2 := ev.Evaluate(m)
		if err1 != nil || err2 != nil {
			return false
		}
		return a.MakespanMs == b.MakespanMs && a.EnergyMJ == b.EnergyMJ &&
			a.Reliability == b.Reliability && a.PeakPowerW == b.PeakPowerW
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestContentionSerializesTransfers(t *testing.T) {
	// A fan-out of two transfers from one source to two other PEs:
	// without contention both travel in parallel; with the shared
	// interconnect the second waits for the first.
	plat := platform.Default()
	imp := func() []taskgraph.Impl {
		return []taskgraph.Impl{{ID: 0, PEType: 1, BaseExTimeMs: 10, BasePowerW: 1, BinaryKB: 16, BitstreamID: -1}}
	}
	impSafe := func() []taskgraph.Impl {
		return []taskgraph.Impl{{ID: 0, PEType: 2, BaseExTimeMs: 10, BasePowerW: 1, BinaryKB: 16, BitstreamID: -1}}
	}
	g := &taskgraph.Graph{
		Name: "fanout",
		Tasks: []taskgraph.Task{
			{ID: 0, Name: "src", Criticality: 1.0 / 3, Impls: imp()},
			{ID: 1, Name: "a", Criticality: 1.0 / 3, Impls: imp()},
			{ID: 2, Name: "b", Criticality: 1.0 / 3, Impls: impSafe()},
		},
		Edges: []taskgraph.Edge{
			{ID: 0, Src: 0, Dst: 1, CommTimeMs: 8},
			{ID: 1, Src: 0, Dst: 2, CommTimeMs: 8},
		},
		PeriodMs: 200,
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	m := &mapping.Mapping{Genes: []mapping.Gene{
		{PE: 1, Impl: 0}, {PE: 2, Impl: 0}, {PE: 3, Impl: 0},
	}}
	space := &mapping.Space{Graph: g, Platform: plat, Catalogue: relmodel.DefaultCatalogue()}
	plain := &Evaluator{Space: space, Env: relmodel.DefaultEnv()}
	bus := &Evaluator{Space: space, Env: relmodel.DefaultEnv(), ContentionAware: true}
	rp, err := plain.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := bus.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	// Parallel transfers: makespan = exec(src) + comm + exec = 10+8+T.
	// Serialised: the later branch waits 8ms more.
	if rb.MakespanMs <= rp.MakespanMs {
		t.Errorf("contention makespan %v should exceed plain %v", rb.MakespanMs, rp.MakespanMs)
	}
	if got := rb.MakespanMs - rp.MakespanMs; math.Abs(got-8) > 1e-9 {
		t.Errorf("serialisation penalty = %v, want 8", got)
	}
}

func TestContentionNoEffectOnSinglePE(t *testing.T) {
	ev, m := chainEvaluator(t)
	plain, err := ev.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	bus := &Evaluator{Space: ev.Space, Env: ev.Env, ContentionAware: true}
	withBus, err := bus.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	if plain.MakespanMs != withBus.MakespanMs || plain.EnergyMJ != withBus.EnergyMJ {
		t.Error("contention model changed a single-PE schedule")
	}
}

func TestContentionNeverFasterAndStillValid(t *testing.T) {
	ev := testEvaluator(t, 40)
	bus := &Evaluator{Space: ev.Space, Env: ev.Env, ContentionAware: true}
	r := rng.New(9)
	for i := 0; i < 20; i++ {
		m := ev.Space.Random(r)
		a, err := ev.Evaluate(m)
		if err != nil {
			t.Fatal(err)
		}
		b, err := bus.Evaluate(m)
		if err != nil {
			t.Fatal(err)
		}
		if b.MakespanMs < a.MakespanMs-1e-9 {
			t.Fatalf("contention made schedule faster: %v < %v", b.MakespanMs, a.MakespanMs)
		}
		// Dependencies still respected under contention.
		for _, e := range ev.Space.Graph.Edges {
			if b.Slots[e.Dst].StartMs+1e-9 < b.Slots[e.Src].EndMs {
				t.Fatalf("edge %d->%d violated under contention", e.Src, e.Dst)
			}
		}
	}
}

func TestGanttRendering(t *testing.T) {
	ev, m := chainEvaluator(t)
	res, err := ev.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	svg := res.Gantt("chain", func(task int) string { return ev.Space.Graph.Tasks[task].Name })
	for _, want := range []string{"chain", "PE1", "<rect"} {
		if !strings.Contains(svg, want) {
			t.Errorf("gantt missing %q", want)
		}
	}
}
