package runtime

// The reference decide pipeline and the property tests that hold the
// scratch-free kernel to it.
//
// refSim is the decide path as it stood before the shared Index: a
// private makespan order per decision maker, a materialised
// feasibility list, fill/normalise/argmax scoring over scratch slices
// and a private memo of full cost decompositions. Its code is kept as
// it was, so any kernel change that alters a decision — a winner, a
// tie-break, a score bit, a plan — fails here. End-to-end oracles that
// replay through this build's own Manager cannot catch that.

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"clrdse/internal/dse"
	"clrdse/internal/mapping"
	"clrdse/internal/platform"
	"clrdse/internal/relmodel"
	"clrdse/internal/rng"
	"clrdse/internal/schedule"
	"clrdse/internal/taskgraph"
)

type refSim struct {
	p     *Params
	maps  []*mapping.Mapping
	mat   *mapping.DRCMatrix
	costs map[[2]int]mapping.ReconfigCost // full decompositions, realised moves only
	// byMakespan orders point IDs by ascending makespan (ties by ID)
	// so the feasibility filter can stop at the first stored point
	// whose makespan exceeds the specification.
	byMakespan []int
	checks     int // stored-point inspections (decision-latency proxy)
	// Per-event scratch, reused across the whole run.
	feas         []int
	perf, cost   []float64
	normP, normC []float64
}

func newRefSim(p *Params) *refSim {
	s := &refSim{
		p:     p,
		maps:  p.DB.Mappings(),
		mat:   p.Matrix,
		costs: make(map[[2]int]mapping.ReconfigCost),
	}
	if s.mat == nil {
		s.mat = mapping.NewDRCMatrix(p.Space, s.maps)
	}
	s.byMakespan = make([]int, len(s.maps))
	for i := range s.byMakespan {
		s.byMakespan[i] = i
	}
	sort.Slice(s.byMakespan, func(a, b int) bool {
		pa, pb := s.byMakespan[a], s.byMakespan[b]
		ma, mb := s.p.DB.Points[pa].MakespanMs, s.p.DB.Points[pb].MakespanMs
		if ma != mb {
			return ma < mb
		}
		return pa < pb
	})
	return s
}

func (s *refSim) fullDRC(from, to int) mapping.ReconfigCost {
	key := [2]int{from, to}
	if c, ok := s.costs[key]; ok {
		return c
	}
	c := s.p.Space.DRC(s.maps[from], s.maps[to])
	s.costs[key] = c
	return c
}

func (s *refSim) feasible(spec QoSSpec) []int {
	s.checks += len(s.p.DB.Points)
	feas := s.feas[:0]
	for _, i := range s.byMakespan {
		pt := s.p.DB.Points[i]
		if pt.MakespanMs > spec.SMaxMs {
			break
		}
		if pt.Reliability >= spec.FMin {
			feas = append(feas, i)
		}
	}
	s.feas = feas
	return feas
}

func (s *refSim) bestBoot(spec QoSSpec) int {
	best, bestJ := -1, math.Inf(1)
	for _, i := range s.feasible(spec) {
		pt := s.p.DB.Points[i]
		if pt.EnergyMJ < bestJ || (pt.EnergyMJ == bestJ && i < best) {
			best, bestJ = i, pt.EnergyMJ
		}
	}
	if best >= 0 {
		return best
	}
	return s.leastViolating(spec)
}

func (s *refSim) decideObserved(cur int, spec QoSSpec) (int, mapping.ReconfigCost, bool, DecisionDetail) {
	curOK := s.p.DB.Points[cur].Feasible(spec.SMaxMs, spec.FMin)
	if s.p.Trigger == TriggerOnViolation && curOK {
		return cur, mapping.ReconfigCost{}, false, DecisionDetail{
			Candidates: 1, Infeasible: 0, TriggerSkipped: true,
		}
	}
	feas := s.feasible(spec)
	detail := DecisionDetail{
		Candidates: len(feas),
		Infeasible: len(s.p.DB.Points) - len(feas),
	}
	if len(feas) == 0 {
		next := s.leastViolating(spec)
		if next == cur {
			return cur, mapping.ReconfigCost{}, true, detail
		}
		return next, s.fullDRC(cur, next), true, detail
	}
	var next int
	if s.p.Policy == PolicyHypervolume {
		next, detail.Score = s.selectHypervolume(feas, spec)
	} else {
		next, detail.Score = s.selectRET(cur, feas)
	}
	if next == cur {
		return cur, mapping.ReconfigCost{}, false, detail
	}
	return next, s.fullDRC(cur, next), false, detail
}

func (s *refSim) selectHypervolume(feas []int, spec QoSSpec) (int, float64) {
	best, bestV := -1, math.Inf(-1)
	for _, i := range feas {
		pt := s.p.DB.Points[i]
		v := (spec.SMaxMs - pt.MakespanMs) * (pt.Reliability - spec.FMin)
		if v > bestV || (v == bestV && i < best) {
			best, bestV = i, v
		}
	}
	return best, bestV
}

func (s *refSim) selectRET(cur int, feas []int) (int, float64) {
	n := len(feas)
	s.perf = growFloats(s.perf, n) // R(p) = -J_app(p), higher better
	s.cost = growFloats(s.cost, n) // dRC from current config
	perf, cost := s.perf, s.cost
	for k, i := range feas {
		perf[k] = -s.p.DB.Points[i].EnergyMJ
		cost[k] = s.mat.Total(cur, i)
		if ag := s.p.Agent; ag != nil && ag.Gamma > 0 {
			perf[k] += ag.Gamma * ag.VR[i]
			cost[k] += ag.Gamma * ag.VD[i]
		}
	}
	s.normP = growFloats(s.normP, n)
	s.normC = growFloats(s.normC, n)
	return refPick(feas, perf, cost, s.normP, s.normC, s.p.PRC, cur)
}

// refPick is the reference scoring tail: normalise the filled
// performance and cost vectors into normP/normC, then take the argmax
// with the stay-else-lowest-ID tie-break.
func refPick(feas []int, perf, cost, normP, normC []float64, prc float64, cur int) (int, float64) {
	normalizeInto(normP, perf)
	normalizeInto(normC, cost)
	best, bestRET := -1, math.Inf(-1)
	for k, i := range feas {
		ret := prc*normP[k] - (1-prc)*normC[k]
		switch {
		case ret > bestRET:
			best, bestRET = i, ret
		case ret == bestRET && best != cur && (i == cur || i < best):
			best = i
		}
	}
	return best, bestRET
}

func (s *refSim) leastViolating(spec QoSSpec) int {
	best, bestV := 0, math.Inf(1)
	s.checks += len(s.p.DB.Points)
	for i, pt := range s.p.DB.Points {
		v := 0.0
		if pt.MakespanMs > spec.SMaxMs {
			v += (pt.MakespanMs - spec.SMaxMs) / spec.SMaxMs
		}
		if pt.Reliability < spec.FMin {
			v += spec.FMin - pt.Reliability
		}
		if v < bestV {
			best, bestV = i, v
		}
	}
	return best
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func normalizeInto(dst, xs []float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if hi == lo {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	for i, x := range xs {
		dst[i] = (x - lo) / (hi - lo)
	}
}

// refManager is the reference Manager.OnQoSChangeObserved over refSim.
type refManager struct {
	sim    *refSim
	cur    int
	events int
}

func newRefManager(p Params, initial QoSSpec) *refManager {
	if p.MeanInterArrivalCycles == 0 {
		p.MeanInterArrivalCycles = 100
	}
	m := &refManager{sim: newRefSim(&p)}
	m.cur = m.sim.bestBoot(initial)
	return m
}

func (m *refManager) onQoSChange(spec QoSSpec) (Decision, DecisionDetail) {
	next, cost, violated, detail := m.sim.decideObserved(m.cur, spec)
	d := Decision{From: m.cur, To: next, Violated: violated}
	if next != m.cur {
		d.Reconfigured = true
		d.Cost = cost
		_, d.Plan = m.sim.p.Space.Transition(m.sim.maps[m.cur], m.sim.maps[next])
	}
	m.events++
	if ag := m.sim.p.Agent; ag != nil {
		t := float64(m.events) * m.sim.p.MeanInterArrivalCycles
		ag.step(next, -m.sim.p.DB.Points[next].EnergyMJ, cost.Total(), t)
	}
	m.cur = next
	return d, detail
}

// refSimulate is Simulate's event loop over refSim.
func refSimulate(p Params) *Metrics {
	p = p.withDefaults()
	r := rng.New(p.Seed)
	eventRNG := r.Split(1)
	specRNG := r.Split(2)
	sim := newRefSim(&p)
	met := &Metrics{}
	if p.Agent != nil {
		p.Agent.resetClock()
	}
	stream := p.QoS.Stream()
	spec := stream.Next(specRNG)
	cur := sim.bestBoot(spec)
	t, energyCycles := 0.0, 0.0
	for {
		dt := eventRNG.Exponential(p.MeanInterArrivalCycles)
		if t+dt >= p.Cycles {
			energyCycles += (p.Cycles - t) * p.DB.Points[cur].EnergyMJ
			break
		}
		t += dt
		energyCycles += dt * p.DB.Points[cur].EnergyMJ
		spec = stream.Next(specRNG)
		next, cost, violated, _ := sim.decideObserved(cur, spec)
		entry := TraceEntry{Event: met.Events, CycleTime: t, Spec: spec, Point: next, Violated: violated}
		if next != cur {
			met.Reconfigs++
			met.TotalDRC += cost.Total()
			met.TotalMigrations += cost.MigratedTasks
			if cost.Total() > met.MaxDRC {
				met.MaxDRC = cost.Total()
			}
			entry.DRC = cost.Total()
			entry.Reconfigured = true
			cur = next
		}
		if p.Agent != nil {
			p.Agent.step(cur, -p.DB.Points[cur].EnergyMJ, cost.Total(), t)
		}
		if violated {
			met.ViolationEvents++
		}
		if met.Events < p.TraceLen {
			met.Trace = append(met.Trace, entry)
		}
		met.Events++
	}
	if p.Agent != nil {
		p.Agent.flush()
	}
	if met.Events > 0 {
		met.AvgDRC = met.TotalDRC / float64(met.Events)
	}
	met.AvgEnergyMJ = energyCycles / p.Cycles
	met.FeasibilityChecks = sim.checks
	return met
}

// kernelDB is one random-mapping database of the property test: n
// evaluated random mappings of a 20-task application, the spread a
// large deployed database has.
type kernelDB struct {
	db    *dse.Database
	space *mapping.Space
	mat   *mapping.DRCMatrix
}

var (
	kernelOnce sync.Once
	kernelDBs  map[int]kernelDB
	kernelErr  error
)

func getKernelDBs(t *testing.T) map[int]kernelDB {
	t.Helper()
	kernelOnce.Do(func() {
		plat := platform.Default()
		g, err := taskgraph.Generate(taskgraph.GenParams{Seed: 81, NumTasks: 20}, plat)
		if err != nil {
			kernelErr = err
			return
		}
		space := &mapping.Space{Graph: g, Platform: plat, Catalogue: relmodel.DefaultCatalogue()}
		ev := &schedule.Evaluator{Space: space, Env: relmodel.DefaultEnv()}
		r := rng.New(5)
		all := &dse.Database{Name: "kernel"}
		for all.Len() < 500 {
			m := space.Random(r)
			res, err := ev.Evaluate(m)
			if err != nil {
				kernelErr = err
				return
			}
			all.Points = append(all.Points, &dse.DesignPoint{
				ID: all.Len(), M: m,
				MakespanMs: res.MakespanMs, Reliability: res.Reliability, EnergyMJ: res.EnergyMJ,
				PeakPowerW: res.PeakPowerW, MTTFMs: res.MTTFMs,
			})
		}
		kernelDBs = make(map[int]kernelDB)
		for _, n := range []int{1, 2, 80, 500} {
			db := &dse.Database{Name: fmt.Sprintf("kernel-%d", n), Points: all.Points[:n]}
			kernelDBs[n] = kernelDB{db: db, space: space, mat: mapping.NewDRCMatrix(space, db.Mappings())}
		}
	})
	if kernelErr != nil {
		t.Fatal(kernelErr)
	}
	return kernelDBs
}

// cloneAgent deep-copies an agent, open episode included, so the
// reference and the kernel learn from identical starting states.
func cloneAgent(a *Agent) *Agent {
	if a == nil {
		return nil
	}
	c := *a
	c.VR = append([]float64(nil), a.VR...)
	c.VD = append([]float64(nil), a.VD...)
	c.visits = append([]int(nil), a.visits...)
	c.states = append([]int(nil), a.states...)
	c.rR = append([]float64(nil), a.rR...)
	c.rD = append([]float64(nil), a.rD...)
	return &c
}

// kernelSpecs draws an event stream from the database's QoS model,
// with every 13th spec unsatisfiable so the least-violation fallback
// runs too.
func kernelSpecs(db *dse.Database, seed int64, n int) []QoSSpec {
	q := ModelFromDatabase(db)
	r := rng.New(seed)
	stream := q.Stream()
	specs := make([]QoSSpec, n)
	for i := range specs {
		specs[i] = stream.Next(r)
		if i%13 == 12 {
			specs[i] = QoSSpec{SMaxMs: q.LoS * 0.5, FMin: 1}
		}
	}
	return specs
}

func sameDetail(a, b DecisionDetail) bool {
	return a.Candidates == b.Candidates && a.Infeasible == b.Infeasible &&
		a.TriggerSkipped == b.TriggerSkipped && math.Float64bits(a.Score) == math.Float64bits(b.Score)
}

// TestKernelMatchesReference feeds identical event streams to the
// reference pipeline and to Manager over N ∈ {1, 2, 80, 500}, every pRC
// corner, uRA and AuRA (γ=0.8, pretrained or cohort-seeded), both
// triggers and both policies, and requires every decision — target,
// cost decomposition, violation flag, plan and detail with the score's
// exact bits — and the learned agent state to match.
func TestKernelMatchesReference(t *testing.T) {
	events := 160
	if testing.Short() {
		events = 60
	}
	for _, n := range []int{1, 2, 80, 500} {
		kd := getKernelDBs(t)[n]
		pre := NewAgentForDB(kd.db, 0.8, 0)
		if err := pre.Pretrain(Params{DB: kd.db, Space: kd.space, Matrix: kd.mat, PRC: 0.5, Trigger: TriggerOnViolation}, 2e4, 17); err != nil {
			t.Fatal(err)
		}
		seeded := NewAgentForDB(kd.db, 0.8, 0)
		vr := rng.New(int64(n))
		vt := &ValueTable{Gamma: 0.8, VR: make([]float64, n), VD: make([]float64, n), Visits: make([]int, n)}
		for i, p := range kd.db.Points {
			vt.VR[i] = -p.EnergyMJ * (2 + vr.Float64())
			vt.VD[i] = 3 * vr.Float64()
			vt.Visits[i] = 1 + vr.Intn(20)
		}
		if err := seeded.ApplyPrior(vt); err != nil {
			t.Fatal(err)
		}
		agents := []struct {
			name  string
			agent *Agent
		}{{"ura", nil}, {"aura-pretrained", pre}, {"aura-cohort", seeded}}
		for _, prc := range []float64{0, 0.25, 0.5, 1} {
			for _, ag := range agents {
				for _, trig := range []Trigger{TriggerAlways, TriggerOnViolation} {
					for _, pol := range []Policy{PolicyRET, PolicyHypervolume} {
						name := fmt.Sprintf("N%d/prc%v/%s/%s/%s", n, prc, ag.name, trig, pol)
						seed := int64(n*1000) + int64(prc*100) + int64(trig)*7 + int64(pol)*3
						specs := kernelSpecs(kd.db, seed, events+1)
						refAgent, newAgent := cloneAgent(ag.agent), cloneAgent(ag.agent)
						ref := newRefManager(Params{DB: kd.db, Space: kd.space, Matrix: kd.mat,
							PRC: prc, Trigger: trig, Policy: pol, Agent: refAgent}, specs[0])
						mgr, err := NewManager(ManagerParams{DB: kd.db, Space: kd.space, Matrix: kd.mat,
							PRC: prc, Trigger: trig, Policy: pol, Agent: newAgent}, specs[0])
						if err != nil {
							t.Fatal(err)
						}
						if ref.cur != mgr.Current() {
							t.Fatalf("%s: boot %d, reference %d", name, mgr.Current(), ref.cur)
						}
						for e, spec := range specs[1:] {
							want, wantDetail := ref.onQoSChange(spec)
							got, gotDetail := mgr.OnQoSChangeObserved(spec, nil)
							if !reflect.DeepEqual(got, want) || !sameDetail(gotDetail, wantDetail) {
								t.Fatalf("%s: event %d differs:\n got  %+v %+v\n want %+v %+v", name, e, got, gotDetail, want, wantDetail)
							}
						}
						if !reflect.DeepEqual(newAgent, refAgent) {
							t.Fatalf("%s: learned agent state differs from the reference", name)
						}
					}
				}
			}
		}
	}
}

// TestAdvanceMatchesOnQoSChange pins the plan-free shadow decision:
// Advance must choose what OnQoSChange chooses and leave the manager —
// agent included — in the same state.
func TestAdvanceMatchesOnQoSChange(t *testing.T) {
	kd := getKernelDBs(t)[80]
	for _, gamma := range []float64{0, 0.8} {
		specs := kernelSpecs(kd.db, 23, 300)
		mk := func() *Manager {
			p := ManagerParams{DB: kd.db, Space: kd.space, Matrix: kd.mat, PRC: 0.5, Trigger: TriggerAlways}
			if gamma > 0 {
				p.Agent = NewAgentForDB(kd.db, gamma, 0)
			}
			m, err := NewManager(p, specs[0])
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		full, lean := mk(), mk()
		for e, spec := range specs[1:] {
			want := full.OnQoSChange(spec).To
			if got := lean.Advance(spec); got != want {
				t.Fatalf("gamma %v event %d: Advance chose %d, OnQoSChange %d", gamma, e, got, want)
			}
		}
		if full.Events() != lean.Events() || !reflect.DeepEqual(full.d.agent, lean.d.agent) {
			t.Fatalf("gamma %v: Advance left a different manager state", gamma)
		}
	}
}

// TestSimulateMatchesReference requires Simulate's metrics — trace,
// costs and the FeasibilityChecks latency proxy — to equal the
// reference loop's, under both triggers, both policies and AuRA.
func TestSimulateMatchesReference(t *testing.T) {
	kd := getKernelDBs(t)[80]
	for _, trig := range []Trigger{TriggerAlways, TriggerOnViolation} {
		for _, pol := range []Policy{PolicyRET, PolicyHypervolume} {
			for _, gamma := range []float64{0, 0.8} {
				p := Params{DB: kd.db, Space: kd.space, PRC: 0.5, Cycles: 30_000, Seed: 31,
					Trigger: trig, Policy: pol, TraceLen: 1 << 20}
				var refAgent, newAgent *Agent
				if gamma > 0 {
					refAgent, newAgent = NewAgentForDB(kd.db, gamma, 0), NewAgentForDB(kd.db, gamma, 0)
				}
				rp := p
				rp.Agent = refAgent
				want := refSimulate(rp)
				p.Agent = newAgent
				got, err := Simulate(p)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s/gamma%v: metrics differ:\n got  %+v\n want %+v", trig, pol, gamma, got, want)
				}
			}
		}
	}
}

// TestKernelHandBuiltCases drives selectRET on hand-built indexes —
// constant energy, constant cost, tied scores, signed zeros in both
// vectors, makespan order unlike ID order — against the reference
// fill/normalise/argmax pipeline, plus a seeded sweep over small
// vectors drawn from a value set dense in ties and signed zeros.
func TestKernelHandBuiltCases(t *testing.T) {
	negZero := math.Copysign(0, -1)
	type kcase struct {
		name   string
		ids    []int32   // makespan order
		rel    []float64 // by rank
		en     []float64 // by rank
		row    []float64 // dRC from cur, by point ID
		vr, vd []float64 // nil: uRA
		cur    int
		fmin   float64
	}
	cases := []kcase{
		{name: "constant-energy", ids: []int32{2, 0, 1, 3}, rel: []float64{1, 1, 1, 1},
			en: []float64{5, 5, 5, 5}, row: []float64{1, 0, 3, 2}, cur: 1},
		{name: "constant-cost", ids: []int32{0, 1, 2}, rel: []float64{1, 1, 1},
			en: []float64{3, 1, 2}, row: []float64{4, 4, 4}, cur: 2},
		{name: "constant-both", ids: []int32{1, 0, 2}, rel: []float64{1, 1, 1},
			en: []float64{2, 2, 2}, row: []float64{0, 0, 0}, cur: 2},
		{name: "tied-scores-stay", ids: []int32{3, 1, 0, 2}, rel: []float64{1, 1, 1, 1},
			en: []float64{1, 2, 1, 2}, row: []float64{1, 2, 1, 2}, cur: 2},
		{name: "tied-scores-lowest-id", ids: []int32{3, 2, 1, 0}, rel: []float64{1, 1, 1, 1},
			en: []float64{1, 1, 1, 1}, row: []float64{1, 1, 1, 1}, cur: 3},
		{name: "signed-zero-costs", ids: []int32{0, 1, 2, 3}, rel: []float64{1, 1, 1, 1},
			en: []float64{1, 2, 3, 4}, row: []float64{negZero, 0, negZero, 0}, cur: 0},
		{name: "signed-zero-costs-spread", ids: []int32{0, 1, 2}, rel: []float64{1, 1, 1},
			en: []float64{1, 1, 1}, row: []float64{0, negZero, 1}, cur: 1},
		{name: "zero-energy", ids: []int32{0, 1, 2}, rel: []float64{1, 1, 1},
			en: []float64{0, 0, negZero}, row: []float64{0, 1, 0}, cur: 0},
		{name: "signed-zero-values", ids: []int32{0, 1, 2}, rel: []float64{1, 1, 1},
			en: []float64{0, 0, 0}, row: []float64{0, 0, 0},
			vr: []float64{negZero, 0, negZero}, vd: []float64{negZero, negZero, 0}, cur: 1},
		{name: "infeasible-gaps", ids: []int32{4, 2, 0, 3, 1}, rel: []float64{0.5, 1, 0.2, 1, 1},
			en: []float64{1, 3, 2, 3, 1}, row: []float64{1, 2, 2, 2, 1}, cur: 4, fmin: 0.9},
	}
	// Seeded sweep: small vectors over a value set rich in ties and
	// signed zeros.
	vals := []float64{negZero, 0, 0.5, 1, 2, -1}
	r := rng.New(99)
	for c := 0; c < 2000; c++ {
		n := 1 + r.Intn(6)
		kc := kcase{name: fmt.Sprintf("sweep-%d", c), cur: r.Intn(n), fmin: 0.5}
		perm := r.Perm(n)
		for k := 0; k < n; k++ {
			kc.ids = append(kc.ids, int32(perm[k]))
			kc.rel = append(kc.rel, []float64{0, 1, 1}[r.Intn(3)])
			kc.en = append(kc.en, vals[r.Intn(len(vals))])
			kc.row = append(kc.row, vals[r.Intn(len(vals))])
		}
		if r.Intn(2) == 0 {
			for k := 0; k < n; k++ {
				kc.vr = append(kc.vr, vals[r.Intn(len(vals))])
				kc.vd = append(kc.vd, vals[r.Intn(len(vals))])
			}
		}
		cases = append(cases, kc)
	}
	for _, kc := range cases {
		n := len(kc.ids)
		ix := newRankIndex(kc.ids, make([]float64, n), kc.rel, kc.en)
		fs, _ := ix.filter(QoSSpec{FMin: kc.fmin})
		var ag *Agent
		if kc.vr != nil {
			ag = &Agent{Gamma: 0.8, VR: kc.vr, VD: kc.vd}
		}
		// Reference: the feasible IDs in makespan order, filled as the
		// reference selectRET fills them.
		var feas []int
		var perf, cost []float64
		for k, id := range kc.ids {
			if kc.rel[k] >= kc.fmin {
				i := int(id)
				p, c := -kc.en[k], kc.row[i]
				if ag != nil {
					p += ag.Gamma * ag.VR[i]
					c += ag.Gamma * ag.VD[i]
				}
				feas, perf, cost = append(feas, i), append(perf, p), append(cost, c)
			}
		}
		if len(feas) == 0 {
			continue // the kernel only runs with a candidate
		}
		for _, prc := range []float64{0, 0.25, 0.5, 1} {
			wantTo, wantScore := refPick(feas, perf, cost, make([]float64, len(feas)), make([]float64, len(feas)), prc, kc.cur)
			gotTo, gotScore := ix.selectRET(kc.row, kc.cur, fs, prc, ag)
			if gotTo != wantTo || math.Float64bits(gotScore) != math.Float64bits(wantScore) {
				t.Fatalf("%s prc %v: kernel (%d, %v/%#x), reference (%d, %v/%#x)", kc.name, prc,
					gotTo, gotScore, math.Float64bits(gotScore), wantTo, wantScore, math.Float64bits(wantScore))
			}
		}
	}
}

// TestSignedZeroBounds pins lower/upper to math.Min/math.Max on every
// ordering of signed zeros and ordinary values.
func TestSignedZeroBounds(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{negZero, 0, -1, 1, math.Inf(1), math.Inf(-1), 2.5}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := lower(a, b), math.Min(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("lower(%v, %v) = %v, math.Min %v", a, b, got, want)
			}
			if got, want := upper(a, b), math.Max(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("upper(%v, %v) = %v, math.Max %v", a, b, got, want)
			}
		}
	}
}
