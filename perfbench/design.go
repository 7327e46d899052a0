package main

// The design workload: the paper's design-time method end to end, one
// application per op — stage-1 NSGA-II (BaseD), ReD seeded the way
// core.Build seeds it, offline AuRA pretraining, and a run-time
// simulation of the built database under uRA and the pretrained AuRA.

import (
	"fmt"
	"math"
	goruntime "runtime"
	"time"

	"clrdse/internal/core"
	"clrdse/internal/dse"
	"clrdse/internal/ga"
	"clrdse/internal/mapping"
	"clrdse/internal/platform"
	"clrdse/internal/relmodel"
	"clrdse/internal/runtime"
	"clrdse/internal/schedule"
	"clrdse/internal/taskgraph"
)

// designConfig sizes the design workload.
type designConfig struct {
	// tasks are the application sizes of the set, one app each.
	tasks []int
	// stageOne and red are the reduced GA budgets.
	stageOne ga.Params
	red      dse.ReDParams
	// pretrainCycles and simCycles are the AuRA pretraining and
	// run-time simulation horizons.
	pretrainCycles, simCycles float64
	prc, gamma                float64
	// refSamples random mappings fix each app's hypervolume reference.
	refSamples int
	// maxOpsPerSecond sizes the preallocated latency sample.
	maxOpsPerSecond int
}

var designCfg = &designConfig{
	tasks:           []int{10, 16, 22, 28, 34, 40, 10, 16, 22, 28, 34, 40},
	stageOne:        ga.Params{PopSize: 16, Generations: 6},
	red:             dse.ReDParams{GA: ga.Params{PopSize: 8, Generations: 3}, MaxExtraPerSeed: 2},
	pretrainCycles:  1e5,
	simCycles:       1e5,
	prc:             0.5,
	gamma:           cohortGamma,
	refSamples:      64,
	maxOpsPerSecond: 200,
}

// designApp is one application of the set: its generator parameters,
// its build options and its hypervolume reference point (J, S, 1-F):
// the worst energy of refSamples random mappings plus 10%, the
// application period and 1-FMin. The reference does not depend on the
// search.
type designApp struct {
	gen     taskgraph.GenParams
	opts    core.Options
	ref     []float64
	simSeed int64
}

// designSetup builds the application set and its reference points.
// The applications and their build seeds are the fixture, so every
// seed builds the same databases; the workload seed drives AuRA
// pretraining and the run-time simulations of each build.
func designSetup(cfg *designConfig, seed int64) ([]*designApp, error) {
	plat := platform.Default()
	cat := relmodel.DefaultCatalogue()
	env := relmodel.DefaultEnv()
	src := stream(fixtureSeed, labelApps)
	sims := stream(seed, labelApps)
	var apps []*designApp
	for _, n := range cfg.tasks {
		a := &designApp{gen: taskgraph.GenParams{Seed: src.Int63(), NumTasks: n}, simSeed: sims.Int63()}
		a.opts = core.Options{Seed: src.Int63(), StageOne: cfg.stageOne, ReD: cfg.red}
		g, err := taskgraph.Generate(a.gen, plat)
		if err != nil {
			return nil, err
		}
		space := &mapping.Space{Graph: g, Platform: plat, Catalogue: cat}
		ev := &schedule.Evaluator{Space: space, Env: env}
		r := src.Split(int64(n))
		worstJ := 0.0
		for i := 0; i < cfg.refSamples; i++ {
			res, err := ev.Evaluate(space.Random(r))
			if err != nil {
				return nil, err
			}
			worstJ = math.Max(worstJ, res.EnergyMJ)
		}
		a.ref = []float64{1.1 * worstJ, g.PeriodMs, 1 - 0.90}
		apps = append(apps, a)
	}
	return apps, nil
}

// buildStages is core.Build's design-time flow in its two timed
// stages: core.Build stopped after stage 1, then ReD on the Problem and
// BaseD it returns, seeded the way core.Build seeds it (Seed+1 unless
// set). TestComposeMatchesCoreBuild keeps the pair byte-identical to
// one core.Build call.
func buildStages(app *taskgraph.Graph, opts core.Options, st *dse.Stats, t *tracer, ref spanRef) (*core.System, error) {
	rp := opts.ReD
	if rp.GA.Seed == 0 {
		rp.GA.Seed = opts.Seed + 1
	}
	opts.SkipReD, opts.Stats = true, st
	end := t.step(spanBase, ref)
	sys, err := core.Build(app, opts)
	end()
	if err != nil {
		return nil, err
	}
	end = t.step(spanReD, ref)
	sys.ReD, err = dse.RunReD(sys.Problem, sys.BaseD, rp)
	end()
	if err != nil {
		return nil, fmt.Errorf("ReD stage: %w", err)
	}
	return sys, nil
}

// step opens a child span of ref and returns its closer; with a nil
// tracer or a root-less ref it records nothing.
func (t *tracer) step(name spanName, ref spanRef) func() {
	if t == nil || ref.id < 0 {
		return func() {}
	}
	id := t.child(name, ref)
	return func() { t.finish(id) }
}

// designResult is one op's output: its quality, its effort counts and
// a fingerprint of everything it produced.
type designResult struct {
	hv, drc, energy float64
	fingerprint     uint64
	stats           dse.Stats
	implied         int
	points          int
	feasChecks      int
}

// designOutput is what one op builds and a device would carry away:
// the problem, both databases and the pretrained agent.
type designOutput struct {
	sys   *core.System
	agent *runtime.Agent
}

// designOne designs one application: generate, BaseD, ReD, validate,
// pretrain, simulate, hypervolume.
func designOne(cfg *designConfig, app *designApp, t *tracer, ref spanRef) (designResult, designOutput, error) {
	var res designResult
	var out designOutput
	end := t.step(spanGenerate, ref)
	g, err := taskgraph.Generate(app.gen, platform.Default())
	end()
	if err != nil {
		return res, out, err
	}
	sys, err := buildStages(g, app.opts, &res.stats, t, ref)
	if err != nil {
		return res, out, err
	}
	out.sys = sys
	base, red, space := sys.BaseD, sys.ReD, sys.Problem.Space
	for _, db := range []*dse.Database{base, red} {
		if err := db.Validate(space); err != nil {
			return res, out, err
		}
	}
	params := runtime.Params{DB: red, Space: space, PRC: cfg.prc, Cycles: cfg.simCycles,
		Trigger: runtime.TriggerOnViolation, Seed: app.simSeed}

	end = t.step(spanPretrain, ref)
	ag := runtime.NewAgentForDB(red, cfg.gamma, 0)
	err = ag.Pretrain(params, cfg.pretrainCycles, app.simSeed+1)
	end()
	if err != nil {
		return res, out, err
	}
	out.agent = ag
	end = t.step(spanSimulate, ref)
	mU, err := runtime.Simulate(params)
	if err == nil {
		aura := params
		aura.Agent = ag
		var mA *runtime.Metrics
		if mA, err = runtime.Simulate(aura); err == nil {
			res.drc = (mU.AvgDRC + mA.AvgDRC) / 2
			res.energy = (mU.AvgEnergyMJ + mA.AvgEnergyMJ) / 2
			res.feasChecks = mU.FeasibilityChecks + mA.FeasibilityChecks
		}
	}
	end()
	if err != nil {
		return res, out, err
	}
	end = t.step(spanHV, ref)
	pts := make([][]float64, 0, red.Len())
	for _, p := range red.Points {
		pts = append(pts, []float64{p.EnergyMJ, p.MakespanMs, 1 - p.Reliability})
	}
	res.hv = frontHV(pts, app.ref)
	end()

	res.points = red.Len()
	p1, p2 := cfg.stageOne, cfg.red.GA
	res.implied = p1.PopSize*(p1.Generations+1) + base.Len()*p2.PopSize*(p2.Generations+1)
	h := uint64(hashOffset)
	for _, db := range []*dse.Database{base, red} {
		h = mix(h, uint64(db.Len()))
		for _, p := range db.Points {
			h = mixS(h, p.M.Key())
			for _, v := range [...]float64{p.MakespanMs, p.Reliability, p.EnergyMJ, p.PeakPowerW, p.MTTFMs} {
				h = mixF(h, v)
			}
		}
	}
	for _, v := range [...]float64{res.hv, res.drc, res.energy} {
		h = mixF(h, v)
	}
	res.fingerprint = h
	return res, out, nil
}

// designPhase is one measured stretch of ops.
type designPhase struct {
	ops, failed int
	wall        time.Duration
	lat         []float64 // µs per op
	proc        procDelta
	windows     []window
	sum         designResult // effort counts summed over the ops
	// last is the last op's output, still referenced when the live
	// heap is read.
	last designOutput
}

// designWindowCycles is how many cycles over the app set make one
// measurement window, so every window designs the same mix.
const designWindowCycles = 4

// runDesignPhase designs apps round-robin in whole windows until dur
// has passed and at least minOps ops were timed; every op must
// reproduce the fingerprint its app produced first.
func runDesignPhase(cfg *designConfig, apps []*designApp, want []designResult, req *uint32, dur time.Duration, minOps int, t *tracer) designPhase {
	ph := designPhase{lat: make([]float64, 0, int(dur.Seconds()*float64(cfg.maxOpsPerSecond)))}
	p0 := snapProc()
	start := time.Now()
	win := newWindowClock(start)
	perWindow := designWindowCycles * len(apps)
	for ph.ops == 0 || ph.ops%perWindow != 0 || time.Since(start) < dur || ph.ops < minOps {
		i := ph.ops % len(apps)
		*req++
		ref := spanRef{id: -1}
		if t != nil {
			ref = t.root(spanDesign, *req)
		}
		t0 := time.Now()
		res, last, err := designOne(cfg, apps[i], t, ref)
		lat := time.Since(t0)
		ph.last = last
		if ref.id >= 0 {
			t.finish(ref.id)
		}
		ph.ops++
		ph.lat = append(ph.lat, float64(lat)/1e3)
		if ph.ops%perWindow == 0 {
			ph.windows = append(ph.windows, win.close(ph.ops))
		}
		if err != nil || res.fingerprint != want[i].fingerprint {
			ph.failed++
			continue
		}
		ph.sum.stats.Stage1Evals += res.stats.Stage1Evals
		ph.sum.stats.ReDEvals += res.stats.ReDEvals
		ph.sum.stats.ReDExtras += res.stats.ReDExtras
		ph.sum.implied += res.implied
		ph.sum.points += res.points
		ph.sum.feasChecks += res.feasChecks
	}
	ph.wall = time.Since(start)
	ph.proc = p0.to(snapProc())
	return ph
}

// outputHeapMB is the live heap the last op's outputs hold, in MB: the
// live heap with them referenced minus the live heap once they are
// dropped. Between ops the workload keeps nothing else of the
// program's, so this is its working set for one design, without the
// harness's own state and the Go runtime's.
func (ph *designPhase) outputHeapMB() float64 {
	held := liveHeapMB()
	goruntime.KeepAlive(ph.last)
	ph.last = designOutput{}
	return held - liveHeapMB()
}

// runDesign is the design workload.
func runDesign(cfg *designConfig, o options) (map[string]float64, outcome, error) {
	var apps []*designApp
	var setups []float64
	for i := 0; i < o.setups; i++ {
		goruntime.GC()
		t0 := time.Now()
		var err error
		if apps, err = designSetup(cfg, o.seed); err != nil {
			return nil, outcome{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	// Warm-up: one design of every app fixes the reference outputs the
	// measured ops must reproduce, and the quality metrics.
	var out outcome
	want := make([]designResult, len(apps))
	var hv, drc, energy float64
	for i, a := range apps {
		res, _, err := designOne(cfg, a, nil, spanRef{id: -1})
		if err != nil {
			return nil, outcome{}, fmt.Errorf("designing app %d: %w", i, err)
		}
		want[i] = res
		hv += res.hv
		drc += res.drc
		energy += res.energy
	}
	n := float64(len(apps))
	measured := time.Duration(o.seconds * float64(time.Second))
	var req uint32
	vals := make(map[string]float64)
	if !o.trace {
		ph := runDesignPhase(cfg, apps, want, &req, measured, 0, nil)
		out.attempted, out.failed = int64(ph.ops), int64(ph.failed)
		lat := summarize(ph.lat)
		ph.lat = nil
		vals["setup_s"] = median(setups)
		vals["ops_per_s"] = medianRate(ph.windows)
		vals["p50_us"] = lat.p50
		vals["p90_us"] = lat.p90
		vals["cpu_us_per_op"] = medianCPUPerOp(ph.windows)
		vals["live_heap_mb"] = ph.outputHeapMB()
		vals["drc_ms_per_event"] = drc / n
		vals["energy_mj_per_event"] = energy / n
		vals["hv"] = hv / n
		warnTail("p90_us", lat.n, 900)
		return vals, out, nil
	}

	t := newTracer(int(o.seconds * float64(cfg.maxOpsPerSecond) * 10))
	// The untraced share runs long enough for its p99 to have
	// minBeyond samples beyond it; the traced rest gives the layers.
	untraced := runDesignPhase(cfg, apps, want, &req, measured/3, samplesFor(990), nil)
	traced := runDesignPhase(cfg, apps, want, &req, measured-measured/3, 0, t)
	out.attempted = int64(untraced.ops + traced.ops)
	out.failed = int64(untraced.failed + traced.failed)
	for _, s := range perLayer {
		vals[s.name] = 0
	}
	vals["p99_us"] = summarize(untraced.lat).p99
	warnTail("p99_us", len(untraced.lat), 990)
	L := t.layers()[spanDesign]
	ops := float64(traced.ops)
	ms := func(name spanName) float64 { return float64(L[name].dur) / 1e6 / ops }
	named := 0.0
	for _, l := range []struct {
		span spanName
		name string
	}{
		{spanGenerate, "taskgraph.generate_ms"}, {spanBase, "dse.base_ms"}, {spanReD, "dse.red_ms"},
		{spanPretrain, "runtime.pretrain_ms"}, {spanSimulate, "runtime.simulate_ms"}, {spanHV, "pareto.hv_ms"},
	} {
		vals[l.name] = ms(l.span)
		named += ms(l.span)
	}
	st := traced.sum
	evals := float64(st.stats.Stage1Evals + st.stats.ReDEvals)
	vals["dse.evals"] = evals / ops
	if evals > 0 {
		vals["dse.us_per_eval"] = float64(L[spanBase].dur+L[spanReD].dur) / 1e3 / evals
	}
	if st.implied > 0 {
		vals["dse.distinct_eval_share"] = evals / float64(st.implied)
	}
	vals["dse.db_points"] = float64(st.points) / ops
	vals["dse.red_extras"] = float64(st.stats.ReDExtras) / ops
	vals["runtime.feasibility_checks"] = float64(st.feasChecks) / ops

	uo := float64(untraced.ops)
	vals["go.allocs_per_op"] = float64(untraced.proc.allocObjs) / uo
	vals["go.alloc_bytes_per_op"] = float64(untraced.proc.allocBytes) / uo
	vals["go.gc_cycles"] = float64(untraced.proc.gcCycles)
	vals["go.gc_cpu_share"] = untraced.proc.gcShare

	e2e := float64(traced.wall.Nanoseconds()) / 1e3 / ops // µs
	res := residual(e2e, named*1e3)
	vals["traced_mean_us"] = e2e
	vals["residual_us"] = res
	vals["residual_ms"] = res / 1e3
	vals["residual_share"] = res / e2e
	vals["trace_overhead_share"] = e2e/(float64(untraced.wall.Nanoseconds())/1e3/uo) - 1
	if err := t.write(fmtTracePath(o, "design")); err != nil {
		return nil, outcome{}, fmt.Errorf("writing spans: %w", err)
	}
	return vals, out, nil
}
