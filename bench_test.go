package clr

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design decisions called out in DESIGN.md
// and microbenches of the core substrates. Each experiment bench
// renders its table/figure once (visible with `go test -bench . -v`)
// and reports the headline quantity via b.ReportMetric, so trends can
// be compared against EXPERIMENTS.md without re-reading logs.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"clrdse/internal/core"
	"clrdse/internal/dse"
	"clrdse/internal/experiments"
	"clrdse/internal/fleet"
	"clrdse/internal/ga"
	"clrdse/internal/lifetime"
	"clrdse/internal/mapping"
	"clrdse/internal/pareto"
	"clrdse/internal/relmodel"
	"clrdse/internal/rng"
	"clrdse/internal/runtime"
	"clrdse/internal/schedule"
	"clrdse/internal/taskgraph"
)

// benchScale is a miniature of the paper's setup so every bench
// completes in seconds; cmd/experiments regenerates the full-scale
// numbers.
func benchScale() experiments.Scale {
	s := experiments.QuickScale()
	s.TaskSizes = []int{10, 20}
	s.SimCycles = 20_000
	s.PretrainCycles = 20_000
	s.Reps = 1
	return s
}

func benchLab(b *testing.B) *experiments.Lab {
	b.Helper()
	return experiments.NewLab(benchScale())
}

func mean(rows []experiments.TableRow, col int) float64 {
	if len(rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.Values[col]
	}
	return sum / float64(len(rows))
}

// --- Experiment benches (one per table/figure) -----------------------

func BenchmarkFig1Motivation(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		r, err := lab.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Render())
			last := r.Systems[len(r.Systems)-1]
			if last.FixedEnergyMJ > 0 {
				b.ReportMetric(100*(last.FixedEnergyMJ-last.AvgEnergyMJ)/last.FixedEnergyMJ, "%Javg-saving-CLR2")
			}
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		r, err := lab.Table4()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Render())
			b.ReportMetric(mean(r.Rows, 0), "%migration-cost-reduction")
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		r, err := lab.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Render())
			extra := 0
			for _, p := range r.Points {
				if p.FromReD {
					extra++
				}
			}
			b.ReportMetric(float64(extra), "extra-points")
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		r, err := lab.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Render())
			b.ReportMetric(float64(r.BaseD.Reconfigs), "BaseD-reconfigs")
			b.ReportMetric(float64(r.ReD.Reconfigs), "ReD-reconfigs")
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		r, err := lab.Table5()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Render())
			b.ReportMetric(mean(r.Rows, 0), "%dRC-reduction")
			b.ReportMetric(mean(r.Rows, 1), "%energy-increase")
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		r, err := lab.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Render())
			s := r.Series[0]
			b.ReportMetric(s.RelEnergy[len(s.RelEnergy)-1], "rel-energy-at-pRC1")
			b.ReportMetric(s.RelDRC[0], "rel-dRC-at-pRC0")
		}
	}
}

func BenchmarkTable6(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		r, err := lab.Table6()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Render())
			b.ReportMetric(mean(r.Rows, 0), "%dRC-reduction-pRC0")
			b.ReportMetric(mean(r.Rows, 1), "%energy-reduction-pRC1")
		}
	}
}

func BenchmarkTable7(b *testing.B) {
	lab := benchLab(b)
	for i := 0; i < b.N; i++ {
		r, err := lab.Table7()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + r.Render())
			b.ReportMetric(mean(r.Rows, 0), "%dRC-reduction-AuRA")
			b.ReportMetric(mean(r.Rows, 1), "%energy-reduction-AuRA")
		}
	}
}

// --- Ablation benches -------------------------------------------------

// benchSystem builds one cached 20-task system for the ablations.
func benchSystem(b *testing.B) (*experiments.Lab, *dse.Problem, *dse.Database, *dse.Database) {
	b.Helper()
	lab := benchLab(b)
	sys, err := lab.System(20, false)
	if err != nil {
		b.Fatal(err)
	}
	return lab, sys.Problem, sys.BaseD, sys.ReD
}

// BenchmarkAblationReDTolerance sweeps the ReD degradation tolerance:
// a wider tolerance admits more (cheaper) additional points at a
// larger QoS sacrifice.
func BenchmarkAblationReDTolerance(b *testing.B) {
	_, prob, base, _ := benchSystem(b)
	for i := 0; i < b.N; i++ {
		for _, tol := range []float64{0.05, 0.10, 0.20} {
			red, err := dse.RunReD(prob, base, dse.ReDParams{
				Tolerance:       tol,
				GA:              ga.Params{PopSize: 16, Generations: 6, Seed: 9},
				MaxExtraPerSeed: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("tolerance=%.2f -> %d extra points", tol, len(red.ReDPoints()))
			}
		}
	}
}

// BenchmarkAblationTrigger compares the always vs on-violation
// adaptation triggers on the same database and event stream.
func BenchmarkAblationTrigger(b *testing.B) {
	lab, prob, _, red := benchSystem(b)
	for i := 0; i < b.N; i++ {
		for _, trig := range []runtime.Trigger{runtime.TriggerAlways, runtime.TriggerOnViolation} {
			m, err := runtime.Simulate(runtime.Params{
				DB: red, Space: prob.Space, PRC: 1,
				Cycles: lab.Scale.SimCycles, Seed: 17, Trigger: trig,
			})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("trigger=%v reconfigs=%d totalDRC=%.2f avgJ=%.2f",
					trig, m.Reconfigs, m.TotalDRC, m.AvgEnergyMJ)
			}
		}
	}
}

// BenchmarkAblationAuRAPrior compares the cold-start agent (uniform
// zero values) against the stay-put prior and offline pretraining.
func BenchmarkAblationAuRAPrior(b *testing.B) {
	lab, prob, _, red := benchSystem(b)
	run := func(ag *runtime.Agent) *runtime.Metrics {
		m, err := runtime.Simulate(runtime.Params{
			DB: red, Space: prob.Space, PRC: 0.5,
			Cycles: lab.Scale.SimCycles, Seed: 19,
			Trigger: runtime.TriggerOnViolation, Agent: ag,
		})
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	for i := 0; i < b.N; i++ {
		cold := runtime.NewAgent(red.Len(), 0.9)
		prior := runtime.NewAgentForDB(red, 0.9, 0)
		pre := runtime.NewAgentForDB(red, 0.9, 0)
		if err := pre.Pretrain(runtime.Params{
			DB: red, Space: prob.Space, PRC: 0.5, Trigger: runtime.TriggerOnViolation,
		}, lab.Scale.PretrainCycles, 23); err != nil {
			b.Fatal(err)
		}
		mc, mp, mt := run(cold), run(prior), run(pre)
		if i == 0 {
			b.Logf("cold:     J=%.2f dRC=%.4f", mc.AvgEnergyMJ, mc.AvgDRC)
			b.Logf("prior:    J=%.2f dRC=%.4f", mp.AvgEnergyMJ, mp.AvgDRC)
			b.Logf("pretrain: J=%.2f dRC=%.4f", mt.AvgEnergyMJ, mt.AvgDRC)
		}
	}
}

// BenchmarkAblationConstraintHandling compares constraint-dominated
// NSGA-II against an unconstrained run followed by post-filtering,
// demonstrating why infeasible points need the Figure 4a treatment.
func BenchmarkAblationConstraintHandling(b *testing.B) {
	lab := benchLab(b)
	app, err := lab.App(20)
	if err != nil {
		b.Fatal(err)
	}
	space := &mapping.Space{Graph: app, Platform: benchPlatform(), Catalogue: relmodel.DefaultCatalogue()}
	ev := &schedule.Evaluator{Space: space, Env: relmodel.DefaultEnv()}
	smax, fmin := app.PeriodMs, 0.90
	constrained := func(m *mapping.Mapping) ([]float64, float64, any) {
		res, err := ev.Evaluate(m)
		if err != nil {
			b.Fatal(err)
		}
		v := 0.0
		if res.MakespanMs > smax {
			v += (res.MakespanMs - smax) / smax
		}
		if res.Reliability < fmin {
			v += fmin - res.Reliability
		}
		return []float64{res.EnergyMJ, res.MakespanMs}, v, res
	}
	unconstrained := func(m *mapping.Mapping) ([]float64, float64, any) {
		objs, _, res := constrained(m)
		return objs, 0, res
	}
	count := func(obj ga.Objective) int {
		e := &ga.Engine{Space: space, Eval: obj, Params: ga.Params{PopSize: 20, Generations: 8, Seed: 29}}
		pop, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for _, ind := range pop.ParetoFront() {
			res := ind.Payload.(*schedule.Result)
			if res.MakespanMs <= smax && res.Reliability >= fmin {
				n++
			}
		}
		return n
	}
	for i := 0; i < b.N; i++ {
		nc, nu := count(constrained), count(unconstrained)
		if i == 0 {
			b.Logf("feasible front points: constraint-dominated=%d unconstrained+filter=%d", nc, nu)
			b.ReportMetric(float64(nc), "constrained-feasible")
			b.ReportMetric(float64(nu), "unconstrained-feasible")
		}
	}
}

func benchPlatform() *Platform { return DefaultPlatform() }

// --- Substrate microbenches -------------------------------------------

func BenchmarkScheduleEvaluate(b *testing.B) {
	plat := DefaultPlatform()
	g, err := taskgraph.Generate(taskgraph.GenParams{Seed: 71, NumTasks: 50}, plat)
	if err != nil {
		b.Fatal(err)
	}
	space := &mapping.Space{Graph: g, Platform: plat, Catalogue: relmodel.DefaultCatalogue()}
	ev := &schedule.Evaluator{Space: space, Env: relmodel.DefaultEnv()}
	m := space.Random(rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Evaluate(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDRC(b *testing.B) {
	plat := DefaultPlatform()
	g, err := taskgraph.Generate(taskgraph.GenParams{Seed: 72, NumTasks: 50}, plat)
	if err != nil {
		b.Fatal(err)
	}
	space := &mapping.Space{Graph: g, Platform: plat, Catalogue: relmodel.DefaultCatalogue()}
	r := rng.New(2)
	x, y := space.Random(r), space.Random(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		space.DRC(x, y)
	}
}

// BenchmarkAvgDRC measures one DRCCache miss: the average
// reconfiguration distance of a genome the cache has not seen, against
// a 20-point stored set on a 40-task application — the ReD objective
// of one fresh genome, memo insert included. A ring of 64 distinct
// genomes feeds it; the cache is rebuilt, off the clock, each time the
// ring comes round.
func BenchmarkAvgDRC(b *testing.B) {
	plat := DefaultPlatform()
	g, err := taskgraph.Generate(taskgraph.GenParams{Seed: 73, NumTasks: 40}, plat)
	if err != nil {
		b.Fatal(err)
	}
	space := &mapping.Space{Graph: g, Platform: plat, Catalogue: relmodel.DefaultCatalogue()}
	r := rng.New(4)
	set := make([]*mapping.Mapping, 20)
	for i := range set {
		set[i] = space.Random(r)
	}
	ring := make([]*mapping.Mapping, 64)
	for i := range ring {
		ring[i] = space.Random(r)
	}
	var cache *mapping.DRCCache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(ring)
		if k == 0 {
			b.StopTimer()
			cache = mapping.NewDRCCache(space, set)
			b.StartTimer()
		}
		cache.AvgDRC(ring[k])
	}
}

func BenchmarkHypervolume3D(b *testing.B) {
	r := rng.New(3)
	pts := make([][]float64, 30)
	for i := range pts {
		pts[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	ref := []float64{1, 1, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pareto.Hypervolume(pts, ref)
	}
}

func BenchmarkGAGeneration(b *testing.B) {
	plat := DefaultPlatform()
	g, err := taskgraph.Generate(taskgraph.GenParams{Seed: 73, NumTasks: 30}, plat)
	if err != nil {
		b.Fatal(err)
	}
	space := &mapping.Space{Graph: g, Platform: plat, Catalogue: relmodel.DefaultCatalogue()}
	ev := &schedule.Evaluator{Space: space, Env: relmodel.DefaultEnv()}
	obj := func(m *mapping.Mapping) ([]float64, float64, any) {
		res, err := ev.Evaluate(m)
		if err != nil {
			b.Fatal(err)
		}
		return []float64{res.EnergyMJ, res.MakespanMs}, 0, res
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &ga.Engine{Space: space, Eval: obj, Params: ga.Params{PopSize: 30, Generations: 1, Seed: int64(i)}}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRuntimeSimulation(b *testing.B) {
	lab := benchLab(b)
	sys, err := lab.System(20, false)
	if err != nil {
		b.Fatal(err)
	}
	db := sys.Database()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := sys.RuntimeParams(db, 0.5, int64(i))
		p.Cycles = 100_000
		if _, err := runtime.Simulate(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTaskGraphGeneration(b *testing.B) {
	plat := DefaultPlatform()
	for i := 0; i < b.N; i++ {
		if _, err := taskgraph.Generate(taskgraph.GenParams{Seed: int64(i), NumTasks: 100}, plat); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBigDB builds a synthetic n-point database over a 40-task
// application: random valid mappings carrying their real schedule
// metrics, so decisions see the same feasibility spread a DSE product
// would, at a database size a bench-scale exploration cannot reach.
func benchBigDB(b *testing.B, n int) (*dse.Database, *mapping.Space) {
	b.Helper()
	plat := DefaultPlatform()
	g, err := taskgraph.Generate(taskgraph.GenParams{Seed: 81, NumTasks: 40}, plat)
	if err != nil {
		b.Fatal(err)
	}
	space := &mapping.Space{Graph: g, Platform: plat, Catalogue: relmodel.DefaultCatalogue()}
	ev := &schedule.Evaluator{Space: space, Env: relmodel.DefaultEnv()}
	r := rng.New(5)
	db := &dse.Database{Name: "bench"}
	for db.Len() < n {
		m := space.Random(r)
		res, err := ev.Evaluate(m)
		if err != nil {
			b.Fatal(err)
		}
		db.Points = append(db.Points, &dse.DesignPoint{
			ID:          db.Len(),
			M:           m,
			MakespanMs:  res.MakespanMs,
			Reliability: res.Reliability,
			EnergyMJ:    res.EnergyMJ,
			PeakPowerW:  res.PeakPowerW,
			MTTFMs:      res.MTTFMs,
		})
	}
	return db, space
}

// BenchmarkDecide measures the uRA decision hot path in isolation on
// an N=80 database: one Manager, TriggerAlways, so every event runs
// the full feasibility filter + RET scoring loop of Algorithm 1.
func BenchmarkDecide(b *testing.B) {
	db, space := benchBigDB(b, 80)
	model := runtime.ModelFromDatabase(db)
	src := rng.New(9)
	boot := model.Sample(src)
	mgr, err := runtime.NewManager(runtime.ManagerParams{
		DB: db, Space: space, PRC: 0.5, Trigger: runtime.TriggerAlways,
	}, boot)
	if err != nil {
		b.Fatal(err)
	}
	stream := model.Stream()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mgr.OnQoSChange(stream.Next(src))
	}
}

// BenchmarkDecideLargeDB measures the decision hot path on a 500-point
// database — the size perfbench's serve-batch serves — with
// TriggerAlways, so every event runs the feasibility filter and RET
// scoring: uRA, and AuRA at gamma 0.8 with a pretrained agent.
func BenchmarkDecideLargeDB(b *testing.B) {
	db, space := benchBigDB(b, 500)
	mat := mapping.NewDRCMatrix(space, db.Mappings())
	model := runtime.ModelFromDatabase(db)
	run := func(b *testing.B, gamma float64) {
		src := rng.New(9)
		p := runtime.ManagerParams{DB: db, Space: space, Matrix: mat, PRC: 0.5, Trigger: runtime.TriggerAlways}
		if gamma > 0 {
			p.Agent = runtime.NewAgentForDB(db, gamma, 0)
			if err := p.Agent.Pretrain(runtime.Params{DB: db, Space: space, Matrix: mat, PRC: 0.5,
				Trigger: runtime.TriggerOnViolation}, 2e4, 17); err != nil {
				b.Fatal(err)
			}
		}
		mgr, err := runtime.NewManager(p, model.Sample(src))
		if err != nil {
			b.Fatal(err)
		}
		stream := model.Stream()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mgr.OnQoSChange(stream.Next(src))
		}
	}
	b.Run("ura", func(b *testing.B) { run(b, 0) })
	b.Run("aura", func(b *testing.B) { run(b, 0.8) })
}

// BenchmarkDecideFleet measures the decision hot path with cold
// per-device state: 1024 managers share one 500-point index, half of
// them AuRA at gamma 0.8 seeded from one pretrained value table, all
// with TriggerAlways. Devices are visited as perfbench's serve-batch
// visits them: 16 groups of 64, four events per device per visit,
// interleaved across the group. By a device's next visit the other
// groups have evicted its agent values and the dRC row out of its
// current point, which BenchmarkDecideLargeDB's one hot manager never
// shows. One op is one served decision, plan included.
func BenchmarkDecideFleet(b *testing.B) {
	const devices, group, events = 1024, 64, 4
	db, space := benchBigDB(b, 500)
	ix, err := runtime.NewIndex(db, space, nil)
	if err != nil {
		b.Fatal(err)
	}
	pre := runtime.NewAgentForDB(db, 0.8, 0)
	if err := pre.Pretrain(runtime.Params{DB: db, Space: space, Matrix: ix.Matrix(), PRC: 0.5,
		Trigger: runtime.TriggerOnViolation}, 2e4, 17); err != nil {
		b.Fatal(err)
	}
	prior := pre.Snapshot()
	model := runtime.ModelFromDatabase(db)
	src := rng.New(9)
	mgrs := make([]*runtime.Manager, devices)
	streams := make([]*runtime.SpecStream, devices)
	for d := range mgrs {
		p := runtime.ManagerParams{Index: ix, PRC: 0.5, Trigger: runtime.TriggerAlways}
		if d%2 == 1 {
			p.Agent = runtime.NewAgentForDB(db, 0.8, 0)
			if err := p.Agent.ApplyPrior(prior); err != nil {
				b.Fatal(err)
			}
		}
		if mgrs[d], err = runtime.NewManager(p, model.Sample(src)); err != nil {
			b.Fatal(err)
		}
		streams[d] = model.Stream()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call, k := i/(group*events), i%(group*events)
		d := call%(devices/group)*group + k%group
		mgrs[d].OnQoSChange(streams[d].Next(src))
	}
}

// BenchmarkShadowDecide measures Continuous ReD's dual-serve overhead
// on the registry decide path: the same N=80 database and event model
// as BenchmarkDecide, once without a candidate (plain) and once with a
// candidate installed so every decision is additionally shadow-scored.
//
// Target: shadow stays within 25% of plain in steady state so that
// dual-serving is cheap enough to leave on for a whole validation
// window. The uRA shadow memo (see fleet.shadowScore) delivers that
// when the incoming spec repeats — the "steady" variant, which drives
// a persisting spec, exercises the memo's hit path. The "shadow"
// variant drives the full stochastic event model, where every fresh
// spec costs a genuine second decision; its overhead is bounded by the
// model's spec-persistence, not by the memo (measured ≈1.5x at the
// model's default persistence).
func BenchmarkShadowDecide(b *testing.B) {
	db, space := benchBigDB(b, 80)
	model := runtime.ModelFromDatabase(db)
	run := func(b *testing.B, withCandidate, steady bool) {
		reg, err := NewFleetRegistry([]NamedDatabase{{Name: "red", DB: db, Space: space}}, 4)
		if err != nil {
			b.Fatal(err)
		}
		src := rng.New(9)
		boot := model.Sample(src)
		if _, err := reg.Register(FleetDeviceParams{
			ID: "bench", Database: "red", PRC: 0.5,
			Trigger: runtime.TriggerAlways, Initial: boot,
		}); err != nil {
			b.Fatal(err)
		}
		if withCandidate {
			cand := *db
			cand.Version = 1
			if err := reg.ProposeDatabase("red", &cand); err != nil {
				b.Fatal(err)
			}
		}
		stream := model.Stream()
		spec := stream.Next(src)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !steady {
				spec = stream.Next(src)
			}
			if _, err := reg.Decide("bench", spec); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("plain", func(b *testing.B) { run(b, false, false) })
	b.Run("shadow", func(b *testing.B) { run(b, true, false) })
	b.Run("plain-steady", func(b *testing.B) { run(b, false, true) })
	b.Run("steady", func(b *testing.B) { run(b, true, true) })
}

// BenchmarkCohortPrior measures the cold-start decide path under
// cohort inheritance on the N=80 database: each iteration registers a
// fresh AuRA device — whose agent is seeded from the cohort's
// published value table at registration — and fires its first QoS
// event. The "bare" variant is the same path with no table published;
// the gate keeps prior application (two value-vector copies plus the
// binding checks) negligible next to registration and the decision
// itself.
func BenchmarkCohortPrior(b *testing.B) {
	db, space := benchBigDB(b, 80)
	model := runtime.ModelFromDatabase(db)
	run := func(b *testing.B, seeded bool) {
		reg, err := NewFleetRegistry([]NamedDatabase{{Name: "red", DB: db, Space: space}}, 4)
		if err != nil {
			b.Fatal(err)
		}
		if seeded {
			_, fp, err := reg.ActiveSnapshot("red")
			if err != nil {
				b.Fatal(err)
			}
			vt := &runtime.ValueTable{
				Version: 1, Epoch: 1, Gamma: 0.8,
				DBVersion: db.Version, DBFingerprint: fp,
				Devices: 8, Events: 512,
				VR:     make([]float64, db.Len()),
				VD:     make([]float64, db.Len()),
				Visits: make([]int, db.Len()),
			}
			for i, p := range db.Points {
				vt.VR[i] = -p.EnergyMJ * 3
				vt.VD[i] = 1.5
				vt.Visits[i] = 10
			}
			if err := reg.PublishValueTable("red", vt); err != nil {
				b.Fatal(err)
			}
		}
		src := rng.New(9)
		boot := model.Sample(src)
		stream := model.Stream()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := fmt.Sprintf("cold-%d", i)
			if _, err := reg.Register(FleetDeviceParams{
				ID: id, Database: "red", PRC: 0.5, Gamma: 0.8,
				Trigger: runtime.TriggerAlways, Initial: boot,
			}); err != nil {
				b.Fatal(err)
			}
			if _, err := reg.Decide(id, stream.Next(src)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, false) })
	b.Run("seeded", func(b *testing.B) { run(b, true) })
}

// BenchmarkReD measures the reconfiguration-cost-aware stage end to
// end: every fitness evaluation computes an average reconfiguration
// distance against the stored set.
func BenchmarkReD(b *testing.B) {
	_, prob, base, _ := benchSystem(b)
	for i := 0; i < b.N; i++ {
		if _, err := dse.RunReD(prob, base, dse.ReDParams{
			GA:              ga.Params{PopSize: 16, Generations: 8, Seed: 5},
			MaxExtraPerSeed: 2,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetDecisionThroughput measures the decision service
// end-to-end: an in-process HTTP server over a real loopback socket,
// parallel clients each owning one registered device and firing QoS
// events as fast as the service answers them. The reported ns/op is
// the full network round-trip per decision.
func BenchmarkFleetDecisionThroughput(b *testing.B) {
	_, prob, _, red := benchSystem(b)
	benchFleetThroughput(b, red, prob.Space)
}

// BenchmarkFleetDecisionThroughputLargeDB is the same service bench on
// an N=80 database — the regime where per-decision work is dominated
// by the feasibility filter and dRC scoring rather than HTTP overhead.
func BenchmarkFleetDecisionThroughputLargeDB(b *testing.B) {
	db, space := benchBigDB(b, 80)
	benchFleetThroughput(b, db, space)
}

func benchFleetThroughput(b *testing.B, db *dse.Database, space *mapping.Space) {
	b.Helper()
	srv, err := NewFleetServer(FleetServerConfig{
		Databases: []NamedDatabase{{Name: "red", DB: db, Space: space}},
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = 256

	minS, maxS, minF, maxF := NamedDatabase{Name: "red", DB: db, Space: space}.Envelope()
	boot := QoSSpec{SMaxMs: maxS, FMin: minF}
	model := runtime.QoSModel{
		MeanS: (minS + maxS) / 2, StdS: (maxS - minS) / 4,
		MeanF: (minF + maxF) / 2, StdF: (maxF - minF) / 4,
		Rho: -0.3, Persist: 0.6,
		LoS: minS, HiS: maxS * 1.05, LoF: minF * 0.98, HiF: maxF,
	}

	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := worker.Add(1)
		src := rng.New(100 + id)
		stream := model.Stream()
		reg := map[string]any{
			"id": fmt.Sprintf("bench-%d", id), "database": "red", "prc": 0.5,
			"trigger": "on-violation",
			"initial": map[string]float64{"s_max_ms": boot.SMaxMs, "f_min": boot.FMin},
		}
		if err := postBenchJSON(client, ts.URL+"/v1/devices", reg); err != nil {
			b.Error(err)
			return
		}
		url := fmt.Sprintf("%s/v1/devices/bench-%d/qos", ts.URL, id)
		for pb.Next() {
			spec := stream.Next(src)
			body := map[string]float64{"s_max_ms": spec.SMaxMs, "f_min": spec.FMin}
			if err := postBenchJSON(client, url, body); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(srv.Registry().DecisionCount()), "decisions")
}

// BenchmarkFleetBatchThroughput measures the batched serving path on
// the same database and event model as BenchmarkFleetDecisionThroughput:
// each parallel worker owns one registered device, accumulates 64
// events, and posts them as one binary batch
// (POST /v1/devices:decide-batch, application/x-clr-bin). The
// reported ns/op is the amortised per-event cost, directly comparable
// to the single-event bench's per-round-trip figure.
func BenchmarkFleetBatchThroughput(b *testing.B) {
	const batchSize = 64
	_, prob, _, red := benchSystem(b)
	srv, err := NewFleetServer(FleetServerConfig{
		Databases: []NamedDatabase{{Name: "red", DB: red, Space: prob.Space}},
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = 256

	minS, maxS, minF, maxF := NamedDatabase{Name: "red", DB: red, Space: prob.Space}.Envelope()
	boot := QoSSpec{SMaxMs: maxS, FMin: minF}
	model := runtime.QoSModel{
		MeanS: (minS + maxS) / 2, StdS: (maxS - minS) / 4,
		MeanF: (minF + maxF) / 2, StdF: (maxF - minF) / 4,
		Rho: -0.3, Persist: 0.6,
		LoS: minS, HiS: maxS * 1.05, LoF: minF * 0.98, HiF: maxF,
	}

	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := worker.Add(1)
		src := rng.New(200 + id)
		stream := model.Stream()
		dev := fmt.Sprintf("bench-batch-%d", id)
		reg := map[string]any{
			"id": dev, "database": "red", "prc": 0.5,
			"trigger": "on-violation",
			"initial": map[string]float64{"s_max_ms": boot.SMaxMs, "f_min": boot.FMin},
		}
		if err := postBenchJSON(client, ts.URL+"/v1/devices", reg); err != nil {
			b.Error(err)
			return
		}
		url := ts.URL + "/v1/devices:decide-batch"
		events := make([]fleet.BatchEventJSON, 0, batchSize)
		var body, respBuf []byte
		var results []fleet.BatchResultJSON
		var seq uint64
		flush := func() error {
			var err error
			if body, err = fleet.AppendBatchRequest(body[:0], events); err != nil {
				return err
			}
			resp, err := client.Post(url, fleet.BinContentType, bytes.NewReader(body))
			if err != nil {
				return err
			}
			respBuf, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("batch: status %s", resp.Status)
			}
			if results, err = fleet.DecodeBatchResponse(respBuf, results[:0]); err != nil {
				return err
			}
			for i := range results {
				if results[i].Status != http.StatusOK {
					return fmt.Errorf("batch slot %d: status %d: %s", i, results[i].Status, results[i].Error)
				}
			}
			events = events[:0]
			return nil
		}
		for pb.Next() {
			spec := stream.Next(src)
			seq++
			events = append(events, fleet.BatchEventJSON{
				Device: dev, Seq: seq,
				QoSSpecJSON: fleet.QoSSpecJSON{SMaxMs: spec.SMaxMs, FMin: spec.FMin},
			})
			if len(events) == batchSize {
				if err := flush(); err != nil {
					b.Error(err)
					return
				}
			}
		}
		if len(events) > 0 {
			if err := flush(); err != nil {
				b.Error(err)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(srv.Registry().DecisionCount()), "decisions")
}

// postBenchJSON posts and drains one request for the fleet benchmark.
func postBenchJSON(client *http.Client, url string, body any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s: status %s", url, resp.Status)
	}
	return nil
}

// BenchmarkDecisionJSON measures the single-event QoS answer's JSON
// codec (fleet.AppendDecision, fleet.DecodeDecision) on a 103-action
// plan, the mean plan length of serve-single's planful answers, and on
// a plan-less answer. Encoding appends into a warm buffer; decoding
// allocates the returned answer, as the client does per call.
func BenchmarkDecisionJSON(b *testing.B) {
	planful := fleet.DecisionJSON{Device: "dev-000042", Seq: 17, From: 12, To: 57, Reconfigured: true}
	kinds := []string{"copy-binary", "load-bitstream", "set-clr", "reorder"}
	for i := 0; i < 103; i++ {
		a := fleet.ActionJSON{Kind: kinds[i%len(kinds)], Task: i % 40, PE: -1, PRR: -1, Bitstream: -1}
		switch i % len(kinds) {
		case 0:
			a.PE, a.CostMs = i%6, 0.29+0.0137*float64(i)
			planful.BinaryMigrationMs += a.CostMs
			planful.MigratedTasks++
		case 1:
			a.Task, a.PRR, a.Bitstream, a.CostMs = -1, i%3, i, 1.7+0.0419*float64(i)
			planful.BitstreamMs += a.CostMs
			planful.ReloadedPRRs++
		}
		planful.Plan = append(planful.Plan, a)
	}
	planful.CostMs = planful.BinaryMigrationMs + planful.BitstreamMs
	planless := fleet.DecisionJSON{Device: "dev-000042", Seq: 18, From: 57, To: 57, Violated: true}
	for _, tc := range []struct {
		name string
		d    *fleet.DecisionJSON
	}{{"plan", &planful}, {"noplan", &planless}} {
		body, err := fleet.AppendDecision(nil, tc.d)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("encode/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			buf := body
			for i := 0; i < b.N; i++ {
				buf, _ = fleet.AppendDecision(buf[:0], tc.d)
			}
		})
		b.Run("decode/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var d fleet.DecisionJSON
				if err := fleet.DecodeDecision(body, &d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchResponseDecode measures the client side of a binary
// batch answer: fleet.DecodeBatchResponse over 256 decisions into a
// fresh result slice of that capacity, as client.DecideBatch decodes.
// Every fourth decision reconfigures with a plan of 40 to 160 actions
// (about 100 on average, as serve-single's planful answers carry); the
// rest stay put without one.
func BenchmarkBatchResponseDecode(b *testing.B) {
	kinds := []string{"copy-binary", "load-bitstream", "set-clr", "reorder"}
	results := make([]fleet.BatchResultJSON, 256)
	for n := range results {
		d := &fleet.DecisionJSON{Device: fmt.Sprintf("dev-%06d", n), Seq: uint64(n + 1), From: n % 97, To: n % 97}
		if n%4 == 0 {
			d.To, d.Reconfigured = (n+13)%97, true
			for i := 0; i < 40+n%121; i++ {
				a := fleet.ActionJSON{Kind: kinds[i%len(kinds)], Task: i % 40, PE: i % 6, PRR: -1, Bitstream: -1,
					CostMs: 0.29 + 0.0137*float64(i)}
				d.Plan = append(d.Plan, a)
				d.CostMs += a.CostMs
			}
		}
		results[n] = fleet.BatchResultJSON{Status: http.StatusOK, Decision: d}
	}
	body, err := fleet.AppendBatchResponse(nil, results)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fleet.DecodeBatchResponse(body, make([]fleet.BatchResultJSON, 0, len(results))); err != nil {
			b.Fatal(err)
		}
	}
}

// batchEncodeOutcomes builds 256 registry outcomes in serve-batch's
// mix, as the batch endpoint hands them to its encoder: about 27% of
// the decisions reconfigure (serve-batch's runtime.reconfig_share reads
// 0.273) with a plan of 40 to 160 actions, a quarter of each kind in
// Transition's order (bitstream loads, binary copies, then the free
// steps); the rest stay put without one.
func batchEncodeOutcomes() ([]fleet.BatchEvent, []fleet.BatchOutcome) {
	order := [4]mapping.ActionKind{mapping.ActionLoadBitstream, mapping.ActionCopyBinary, mapping.ActionSetCLR, mapping.ActionReorder}
	events := make([]fleet.BatchEvent, 256)
	outs := make([]fleet.BatchOutcome, 256)
	for n := range events {
		events[n] = fleet.BatchEvent{Device: fmt.Sprintf("dev-%06d", n), Seq: uint64(n + 1)}
		d := runtime.Decision{From: n % 97, To: n % 97}
		if n%11 < 3 {
			d.To, d.Reconfigured = (n+13)%97, true
			size := 40 + n*37%121
			for i := 0; i < size; i++ {
				a := mapping.Action{Kind: order[4*i/size], Task: i % 40, PE: -1, PRR: -1, Bitstream: -1}
				switch a.Kind {
				case mapping.ActionLoadBitstream:
					a.Task, a.PE, a.PRR, a.Bitstream, a.CostMs = -1, 4+i%2, i%2, i%23, 1.7
					d.Cost.BitstreamMs += a.CostMs
					d.Cost.ReloadedPRRs++
				case mapping.ActionCopyBinary:
					a.PE, a.CostMs = i%6, 0.29+0.0137*float64(i)
					d.Cost.BinaryMigrationMs += a.CostMs
					d.Cost.MigratedTasks++
				}
				d.Plan = append(d.Plan, a)
			}
		}
		outs[n] = fleet.BatchOutcome{Out: fleet.DecideOutcome{Decision: d}}
	}
	return events, outs
}

// BenchmarkBatchResponseEncode measures the server side of a binary
// batch answer: fleet.AppendBatchOutcomes over 256 registry outcomes in
// serve-batch's mix (see batchEncodeOutcomes) into a reused buffer, as
// the batch endpoint encodes them.
func BenchmarkBatchResponseEncode(b *testing.B) {
	events, outs := batchEncodeOutcomes()
	buf, err := fleet.AppendBatchOutcomes(nil, events, outs)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = fleet.AppendBatchOutcomes(buf[:0], events, outs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistryDecideBatch measures serve-batch's server side
// without HTTP: fleet.Registry.AppendDecideBatch — the batch decide
// plus the CLRB encode of its answer — over 1024 devices (half AuRA at
// γ=0.8) on a 500-point database with a candidate proposed, so every
// event is also shadow-scored. One op is one 256-event call: 64
// devices, 4 events each, the groups taken in turn. Its allocs/op is
// the figure to read: one journal entry per event plus a few per call.
func BenchmarkRegistryDecideBatch(b *testing.B) {
	const devices, group, perDevice = 1024, 64, 4
	db, space := benchBigDB(b, 500)
	reg, err := NewFleetRegistry([]NamedDatabase{{Name: "red", DB: db, Space: space}}, 0)
	if err != nil {
		b.Fatal(err)
	}
	model := runtime.ModelFromDatabase(db)
	src := rng.New(9)
	ids := make([]string, devices)
	streams := make([]*runtime.SpecStream, devices)
	for d := range ids {
		ids[d] = fmt.Sprintf("dev-%06d", d)
		p := FleetDeviceParams{ID: ids[d], Database: "red", PRC: []float64{0.25, 0.5, 0.75}[d%3],
			Trigger: runtime.TriggerAlways, Initial: model.Sample(src)}
		if d%2 == 1 {
			p.Gamma = 0.8
		}
		if _, err := reg.Register(p); err != nil {
			b.Fatal(err)
		}
		streams[d] = model.Stream()
	}
	cand := *db
	cand.Version = 1
	if err := reg.ProposeDatabase("red", &cand); err != nil {
		b.Fatal(err)
	}
	events := make([]fleet.BatchEvent, group*perDevice)
	outs := make([]fleet.BatchOutcome, len(events))
	seqs := make([]uint64, devices)
	var buf []byte
	ctx := context.Background()
	call := func(c int) {
		first := c % (devices / group) * group
		for k := 0; k < perDevice; k++ {
			for j := 0; j < group; j++ {
				d := first + j
				seqs[d]++
				events[k*group+j] = fleet.BatchEvent{Device: ids[d], Seq: seqs[d], Spec: streams[d].Next(src)}
			}
		}
		clear(outs)
		if buf, err = reg.AppendDecideBatch(ctx, buf[:0], events, outs); err != nil {
			b.Fatal(err)
		}
	}
	// Every device decides once before timing starts.
	for c := 0; c < devices/group; c++ {
		call(c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call(i)
	}
}

// BenchmarkAblationStorageBudget sweeps the pruning budget of the
// paper's storage-constraint concern: how much run-time quality a
// smaller stored database costs.
func BenchmarkAblationStorageBudget(b *testing.B) {
	lab, prob, _, red := benchSystem(b)
	for i := 0; i < b.N; i++ {
		for _, budget := range []int{red.Len(), red.Len() / 2, red.Len() / 4, 4} {
			db := red
			if budget < red.Len() {
				var err error
				db, err = dse.Prune(red, budget, false)
				if err != nil {
					b.Fatal(err)
				}
			}
			m, err := runtime.Simulate(runtime.Params{
				DB: db, Space: prob.Space, PRC: 1,
				Cycles: lab.Scale.SimCycles, Seed: 37,
			})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("budget=%3d points: avgJ=%.2f avgDRC=%.4f violations=%d",
					db.Len(), m.AvgEnergyMJ, m.AvgDRC, m.ViolationEvents)
			}
		}
	}
}

// BenchmarkAblationLifetimeObjective compares the plain DSE against
// the MTTF-extended objective the paper sketches in Section 4.1.
func BenchmarkAblationLifetimeObjective(b *testing.B) {
	lab := benchLab(b)
	app, err := lab.App(20)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, lifetime := range []bool{false, true} {
			prob := &dse.Problem{
				Space: &mapping.Space{
					Graph:     app,
					Platform:  DefaultPlatform(),
					Catalogue: relmodel.DefaultCatalogue(),
				},
				Env:      relmodel.DefaultEnv(),
				SMaxMs:   app.PeriodMs,
				FMin:     0.90,
				Lifetime: lifetime,
			}
			db, err := dse.RunBase(prob, ga.Params{PopSize: 24, Generations: 10, Seed: 41})
			if err != nil {
				b.Fatal(err)
			}
			bestMTTF, bestJ := 0.0, 0.0
			for _, p := range db.Points {
				if p.MTTFMs > bestMTTF {
					bestMTTF = p.MTTFMs
				}
				if bestJ == 0 || p.EnergyMJ < bestJ {
					bestJ = p.EnergyMJ
				}
			}
			if i == 0 {
				b.Logf("lifetime=%v: %d points, best MTTF %.3g ms, best J %.2f mJ",
					lifetime, db.Len(), bestMTTF, bestJ)
			}
		}
	}
}

// BenchmarkAblationHeuristicSeeding compares random-only GA
// initialisation against injecting the constructive heuristics.
func BenchmarkAblationHeuristicSeeding(b *testing.B) {
	lab := benchLab(b)
	app, err := lab.App(20)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, seeded := range []bool{false, true} {
			sys, err := core.Build(app, core.Options{
				Seed:           51,
				StageOne:       ga.Params{PopSize: 24, Generations: 10},
				SkipReD:        true,
				HeuristicSeeds: seeded,
			})
			if err != nil {
				b.Fatal(err)
			}
			bestJ, bestS := 0.0, 0.0
			for _, p := range sys.BaseD.Points {
				if bestJ == 0 || p.EnergyMJ < bestJ {
					bestJ = p.EnergyMJ
				}
				if bestS == 0 || p.MakespanMs < bestS {
					bestS = p.MakespanMs
				}
			}
			if i == 0 {
				b.Logf("heuristic-seeds=%v: front=%d bestJ=%.2f bestS=%.2f",
					seeded, sys.BaseD.Len(), bestJ, bestS)
			}
		}
	}
}

// BenchmarkAblationLifetimeUsage compares mission lifetime under a
// frugal dynamic-CLR usage mix against pinning the most protected
// configuration — the wear argument for lifetime-aware adaptation.
func BenchmarkAblationLifetimeUsage(b *testing.B) {
	lab, prob, _, red := benchSystem(b)
	_ = lab
	// Usage mixes: uniform over the stored points (dynamic) vs the
	// single most reliable point (pinned worst case).
	var pinned *dse.DesignPoint
	for _, p := range red.Points {
		if pinned == nil || p.Reliability > pinned.Reliability {
			pinned = p
		}
	}
	for i := 0; i < b.N; i++ {
		dyn, err := lifetime.Simulate(lifetime.UsageFromDatabasePoints(red.Mappings()),
			lifetime.Params{Space: prob.Space, Samples: 1000, Seed: 61})
		if err != nil {
			b.Fatal(err)
		}
		fix, err := lifetime.Simulate([]lifetime.Usage{{M: pinned.M, Weight: 1}},
			lifetime.Params{Space: prob.Space, Samples: 1000, Seed: 61})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("dynamic mix: mission loss %.3g ms (%.1f failures survived)",
				dyn.MeanMissionLossMs, dyn.FailuresSurvived)
			b.Logf("pinned max-F: mission loss %.3g ms (%.1f failures survived)",
				fix.MeanMissionLossMs, fix.FailuresSurvived)
			b.ReportMetric(dyn.MeanMissionLossMs/fix.MeanMissionLossMs, "lifetime-ratio")
		}
	}
}

// BenchmarkAblationCrossover compares the recombination operators on
// the stage-1 exploration at equal budget.
func BenchmarkAblationCrossover(b *testing.B) {
	lab := benchLab(b)
	app, err := lab.App(20)
	if err != nil {
		b.Fatal(err)
	}
	space := &mapping.Space{Graph: app, Platform: DefaultPlatform(), Catalogue: relmodel.DefaultCatalogue()}
	ev := &schedule.Evaluator{Space: space, Env: relmodel.DefaultEnv()}
	obj := func(m *mapping.Mapping) ([]float64, float64, any) {
		res, err := ev.Evaluate(m)
		if err != nil {
			b.Fatal(err)
		}
		return []float64{res.EnergyMJ, res.MakespanMs}, 0, res
	}
	ref := []float64{1e6, 1e6}
	for i := 0; i < b.N; i++ {
		for _, kind := range []ga.CrossoverKind{ga.CrossoverUniform, ga.CrossoverOnePoint, ga.CrossoverTwoPoint} {
			e := &ga.Engine{Space: space, Eval: obj, Params: ga.Params{
				PopSize: 24, Generations: 12, Seed: 71, Crossover: kind,
			}}
			pop, err := e.Run()
			if err != nil {
				b.Fatal(err)
			}
			var objs [][]float64
			for _, ind := range pop.ParetoFront() {
				objs = append(objs, ind.Objs)
			}
			if i == 0 {
				b.Logf("%-9v front=%2d HV=%.4g", kind, len(objs), pareto.Hypervolume(objs, ref))
			}
		}
	}
}

// BenchmarkAblationSurvival compares NSGA-II crowding truncation
// against SMS-EMOA-style hyper-volume-contribution truncation — the
// literal reading of the paper's Eq. (5).
func BenchmarkAblationSurvival(b *testing.B) {
	lab := benchLab(b)
	app, err := lab.App(20)
	if err != nil {
		b.Fatal(err)
	}
	space := &mapping.Space{Graph: app, Platform: DefaultPlatform(), Catalogue: relmodel.DefaultCatalogue()}
	ev := &schedule.Evaluator{Space: space, Env: relmodel.DefaultEnv()}
	obj := func(m *mapping.Mapping) ([]float64, float64, any) {
		res, err := ev.Evaluate(m)
		if err != nil {
			b.Fatal(err)
		}
		return []float64{res.EnergyMJ, res.MakespanMs}, 0, res
	}
	ref := []float64{1e6, 1e6}
	for i := 0; i < b.N; i++ {
		for _, survival := range []ga.SurvivalKind{ga.SurvivalCrowding, ga.SurvivalHypervolume} {
			e := &ga.Engine{Space: space, Eval: obj, Params: ga.Params{
				PopSize: 24, Generations: 12, Seed: 73, Survival: survival,
			}}
			pop, err := e.Run()
			if err != nil {
				b.Fatal(err)
			}
			var objs [][]float64
			for _, ind := range pop.ParetoFront() {
				objs = append(objs, ind.Objs)
			}
			if i == 0 {
				b.Logf("%-11v front=%2d HV=%.6g", survival, len(objs), pareto.Hypervolume(objs, ref))
			}
		}
	}
}

// BenchmarkAblationContention quantifies how much the paper's
// additive communication-latency abstraction underestimates makespans
// versus a shared-interconnect model, on the same stored points.
func BenchmarkAblationContention(b *testing.B) {
	_, prob, base, _ := benchSystem(b)
	bus := &schedule.Evaluator{Space: prob.Space, Env: prob.Env, ContentionAware: true}
	plain := &schedule.Evaluator{Space: prob.Space, Env: prob.Env}
	for i := 0; i < b.N; i++ {
		worst, sum := 0.0, 0.0
		for _, pt := range base.Points {
			rp, err := plain.Evaluate(pt.M)
			if err != nil {
				b.Fatal(err)
			}
			rb, err := bus.Evaluate(pt.M)
			if err != nil {
				b.Fatal(err)
			}
			gap := rb.MakespanMs/rp.MakespanMs - 1
			sum += gap
			if gap > worst {
				worst = gap
			}
		}
		if i == 0 {
			b.Logf("contention vs additive makespan: mean +%.1f%%, worst +%.1f%% over %d points",
				100*sum/float64(base.Len()), 100*worst, base.Len())
			b.ReportMetric(100*sum/float64(base.Len()), "%mean-makespan-underestimate")
		}
	}
}
