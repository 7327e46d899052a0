package dse

import (
	"testing"

	"clrdse/internal/ga"
	"clrdse/internal/mapping"
	"clrdse/internal/pareto"
	"clrdse/internal/platform"
	"clrdse/internal/relmodel"
	"clrdse/internal/rng"
	"clrdse/internal/schedule"
	"clrdse/internal/taskgraph"
)

func testProblem(t *testing.T, n int, csp bool) *Problem {
	t.Helper()
	plat := platform.Default()
	g, err := taskgraph.Generate(taskgraph.GenParams{Seed: 41, NumTasks: n}, plat)
	if err != nil {
		t.Fatal(err)
	}
	return &Problem{
		Space:  &mapping.Space{Graph: g, Platform: plat, Catalogue: relmodel.DefaultCatalogue()},
		Env:    relmodel.DefaultEnv(),
		SMaxMs: g.PeriodMs,
		FMin:   0.90,
		CSP:    csp,
	}
}

func smallGA(seed int64) ga.Params {
	return ga.Params{PopSize: 24, Generations: 10, Seed: seed}
}

func smallReD(seed int64) ReDParams {
	return ReDParams{GA: ga.Params{PopSize: 16, Generations: 8, Seed: seed}, MaxExtraPerSeed: 2}
}

func TestRunBaseProducesFeasibleFront(t *testing.T) {
	p := testProblem(t, 20, false)
	db, err := RunBase(p, smallGA(1))
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() == 0 {
		t.Fatal("empty BaseD")
	}
	for _, pt := range db.Points {
		if pt.MakespanMs > p.SMaxMs {
			t.Errorf("point %d violates SMax: %v > %v", pt.ID, pt.MakespanMs, p.SMaxMs)
		}
		if pt.Reliability < p.FMin {
			t.Errorf("point %d violates FMin: %v < %v", pt.ID, pt.Reliability, p.FMin)
		}
		if pt.FromReD {
			t.Errorf("BaseD point %d marked FromReD", pt.ID)
		}
		if err := p.Space.Validate(pt.M); err != nil {
			t.Errorf("point %d invalid: %v", pt.ID, err)
		}
	}
}

func TestRunBaseFrontNonDominated(t *testing.T) {
	p := testProblem(t, 20, false)
	db, err := RunBase(p, smallGA(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range db.Points {
		for j, b := range db.Points {
			if i != j && pareto.Dominates(a.QoSObjs(false), b.QoSObjs(false)) {
				t.Fatalf("point %d dominates point %d in BaseD", i, j)
			}
		}
	}
}

func TestRunBaseCSPDropsEnergyObjective(t *testing.T) {
	p := testProblem(t, 15, true)
	db, err := RunBase(p, smallGA(3))
	if err != nil {
		t.Fatal(err)
	}
	// In CSP mode, QoS objectives are 2-D.
	if got := len(db.Points[0].QoSObjs(true)); got != 2 {
		t.Errorf("CSP objective dim = %d, want 2", got)
	}
	for i, a := range db.Points {
		for j, b := range db.Points {
			if i != j && pareto.Dominates(a.QoSObjs(true), b.QoSObjs(true)) {
				t.Fatalf("CSP front not mutually non-dominated (%d vs %d)", i, j)
			}
		}
	}
}

func TestRunBaseDeterministic(t *testing.T) {
	p := testProblem(t, 15, false)
	a, err := RunBase(p, smallGA(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBase(p, smallGA(4))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Points {
		if !a.Points[i].M.Equal(b.Points[i].M) {
			t.Fatal("same seed produced different databases")
		}
	}
}

func TestRunBaseInfeasibleProblem(t *testing.T) {
	p := testProblem(t, 15, false)
	p.FMin = 0.999999 // unattainable
	if _, err := RunBase(p, smallGA(5)); err == nil {
		t.Error("RunBase should fail when no feasible point exists")
	}
}

func TestProblemValidate(t *testing.T) {
	p := testProblem(t, 10, false)
	cases := []func(*Problem){
		func(q *Problem) { q.Space = nil },
		func(q *Problem) { q.SMaxMs = 0 },
		func(q *Problem) { q.FMin = 1 },
		func(q *Problem) { q.FMin = -0.1 },
	}
	for i, mut := range cases {
		q := *p
		mut(&q)
		if err := q.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted bad problem", i)
		}
	}
}

func TestRunReDAddsCheaperPoints(t *testing.T) {
	p := testProblem(t, 25, false)
	base, err := RunBase(p, smallGA(6))
	if err != nil {
		t.Fatal(err)
	}
	red, err := RunReD(p, base, smallReD(7))
	if err != nil {
		t.Fatal(err)
	}
	if red.Len() < base.Len() {
		t.Fatalf("ReD lost points: %d < %d", red.Len(), base.Len())
	}
	// Every base point is preserved, in order, at the head.
	for i, bp := range base.Points {
		if !red.Points[i].M.Equal(bp.M) {
			t.Fatalf("ReD reordered base point %d", i)
		}
	}
	extra := red.ReDPoints()
	if len(extra) != red.Len()-base.Len() {
		t.Errorf("ReD flagged %d extra points, want %d", len(extra), red.Len()-base.Len())
	}
	baseMaps := base.Mappings()
	for _, ep := range extra {
		if !ep.FromReD {
			t.Error("extra point not flagged FromReD")
		}
		// The whole purpose: extra points are cheaper to reach from
		// the stored set than at least the global average.
		if err := p.Space.Validate(ep.M); err != nil {
			t.Errorf("extra point invalid: %v", err)
		}
		// And they satisfy the global constraints.
		if ep.MakespanMs > p.SMaxMs || ep.Reliability < p.FMin {
			t.Errorf("extra point violates global constraints: S=%v F=%v", ep.MakespanMs, ep.Reliability)
		}
		_ = baseMaps
	}
}

func TestRunReDExtrasAreCheaperThanTheirSeeds(t *testing.T) {
	p := testProblem(t, 25, false)
	base, err := RunBase(p, smallGA(8))
	if err != nil {
		t.Fatal(err)
	}
	red, err := RunReD(p, base, smallReD(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(red.ReDPoints()) == 0 {
		t.Skip("no extra points found at this scale")
	}
	baseMaps := base.Mappings()
	maxSeedDist := 0.0
	for _, bp := range base.Points {
		if d := p.Space.AvgDRCTo(bp.M, baseMaps); d > maxSeedDist {
			maxSeedDist = d
		}
	}
	for _, ep := range red.ReDPoints() {
		if d := p.Space.AvgDRCTo(ep.M, baseMaps); d >= maxSeedDist {
			t.Errorf("extra point avg dRC %v >= worst seed %v", d, maxSeedDist)
		}
	}
}

func TestRunReDRespectsMaxExtraPerSeed(t *testing.T) {
	p := testProblem(t, 20, false)
	base, err := RunBase(p, smallGA(10))
	if err != nil {
		t.Fatal(err)
	}
	rp := smallReD(11)
	rp.MaxExtraPerSeed = 1
	red, err := RunReD(p, base, rp)
	if err != nil {
		t.Fatal(err)
	}
	if got, max := len(red.ReDPoints()), base.Len(); got > max {
		t.Errorf("extras = %d, want <= %d (1 per seed)", got, max)
	}
}

func TestRunReDRejectsBadInputs(t *testing.T) {
	p := testProblem(t, 10, false)
	if _, err := RunReD(p, &Database{}, smallReD(12)); err == nil {
		t.Error("RunReD accepted empty base")
	}
	base, err := RunBase(p, smallGA(13))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunReD(p, base, ReDParams{Tolerance: 2, GA: smallGA(13)}); err == nil {
		t.Error("RunReD accepted tolerance 2")
	}
}

func TestEvaluatorCaches(t *testing.T) {
	p := testProblem(t, 15, false)
	ev := NewEvaluator(p)
	m := p.Space.Random(rng.New(14))
	a, err := ev.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ev.Evaluate(m.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache miss for identical genome")
	}
	if ev.Evals != 1 {
		t.Errorf("Evals = %d, want 1", ev.Evals)
	}
}

func TestFeasibleFilter(t *testing.T) {
	d := &DesignPoint{MakespanMs: 100, Reliability: 0.95}
	if !d.Feasible(100, 0.95) {
		t.Error("boundary spec should be feasible")
	}
	if d.Feasible(99, 0.95) {
		t.Error("tighter makespan should be infeasible")
	}
	if d.Feasible(100, 0.96) {
		t.Error("tighter reliability should be infeasible")
	}
}

func TestDatabaseAccessors(t *testing.T) {
	db := &Database{Name: "x", Points: []*DesignPoint{
		{ID: 0, M: &mapping.Mapping{}},
		{ID: 1, M: &mapping.Mapping{}, FromReD: true},
	}}
	if db.Len() != 2 || len(db.ReDPoints()) != 1 {
		t.Error("accessor counts wrong")
	}
	if len(db.Mappings()) != 2 {
		t.Error("Mappings length wrong")
	}
}

func TestPeakPowerConstraint(t *testing.T) {
	// An unconstrained run establishes the peak-power range; a capped
	// run must keep every stored point under the cap.
	free := testProblem(t, 20, false)
	base, err := RunBase(free, smallGA(141))
	if err != nil {
		t.Fatal(err)
	}
	minW, maxW := 1e18, 0.0
	for _, p := range base.Points {
		if p.PeakPowerW < minW {
			minW = p.PeakPowerW
		}
		if p.PeakPowerW > maxW {
			maxW = p.PeakPowerW
		}
	}
	if maxW <= minW {
		t.Skip("no peak-power spread to constrain")
	}
	cap := (minW + maxW) / 2
	capped := testProblem(t, 20, false)
	capped.WMaxW = cap
	db, err := RunBase(capped, smallGA(141))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range db.Points {
		if p.PeakPowerW > cap+1e-9 {
			t.Errorf("point %d peak power %v exceeds cap %v", p.ID, p.PeakPowerW, cap)
		}
	}
	bad := testProblem(t, 10, false)
	bad.WMaxW = -1
	if err := bad.Validate(); err == nil {
		t.Error("accepted negative WMaxW")
	}
}

func TestContentionAwareDSE(t *testing.T) {
	// A contention-aware exploration must produce points whose stored
	// makespans reflect serialised transfers: re-evaluating them with
	// the contention model reproduces the stored values exactly, while
	// the additive model can only be equal or faster.
	p := testProblem(t, 20, false)
	p.ContentionAware = true
	db, err := RunBase(p, smallGA(151))
	if err != nil {
		t.Fatal(err)
	}
	bus := &schedule.Evaluator{Space: p.Space, Env: p.Env, ContentionAware: true}
	plain := &schedule.Evaluator{Space: p.Space, Env: p.Env}
	for _, pt := range db.Points {
		rb, err := bus.Evaluate(pt.M)
		if err != nil {
			t.Fatal(err)
		}
		if rb.MakespanMs != pt.MakespanMs {
			t.Fatalf("stored makespan %v != contention re-evaluation %v", pt.MakespanMs, rb.MakespanMs)
		}
		rp, err := plain.Evaluate(pt.M)
		if err != nil {
			t.Fatal(err)
		}
		if rp.MakespanMs > rb.MakespanMs+1e-9 {
			t.Fatalf("additive model slower than contention model: %v > %v", rp.MakespanMs, rb.MakespanMs)
		}
	}
}
