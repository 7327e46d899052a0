package main

// The serve-single and serve-batch workloads: an in-process
// fleet.Server on loopback, driven by one goroutine through the
// repository's own fleet/client over a single HTTP connection.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	goruntime "runtime"
	"time"

	"clrdse/internal/dse"
	"clrdse/internal/fleet"
	"clrdse/internal/fleet/client"
	"clrdse/internal/mapping"
	"clrdse/internal/pareto"
	"clrdse/internal/platform"
	"clrdse/internal/relmodel"
	"clrdse/internal/rng"
	"clrdse/internal/runtime"
	"clrdse/internal/schedule"
	"clrdse/internal/taskgraph"
)

const (
	// dbName is the cohort every device registers against.
	dbName = "red"
	// cohortGamma is the AuRA discount factor; the serve-single cohort
	// table is learned under it, so AuRA registrations inherit it.
	cohortGamma = 0.8
)

// fixtureSeed fixes what a workload runs against — the application,
// the databases, the cohort table and the design app set — so that the
// workload seed varies the traffic and the search, not the system
// under test. A different fixture is a different workload.
const fixtureSeed int64 = 2019

// Stream labels: every generated input is a pure function of a seed
// (fixtureSeed or the workload seed) and one of these labels.
const (
	labelGraph int64 = iota + 1
	labelActive
	labelCandidate
	labelTable
	labelApps
	labelIdle
	labelDevices = 1000
)

// stream returns the seeded source for one input.
func stream(seed, label int64) *rng.Source { return rng.New(seed).Split(label) }

// serveConfig sizes one serve workload.
type serveConfig struct {
	name    string
	tasks   int    // application size behind the served database
	points  int    // stored points in the active database
	trigger string // wire spelling of every device's trigger
	batch   bool

	// serve-single: slots concurrent sessions served round-robin; a
	// session registers, sends sessionEvents QoS events, deregisters
	// and is replaced.
	slots, sessionEvents int
	// cohortTable publishes a value table for cohortGamma in set-up.
	cohortTable bool
	// idle devices are registered in set-up and never send an event:
	// the resident fleet a server carries besides its active sessions.
	// Without them the whole heap is a few MB and Go's collector runs
	// about eighty times a second, so the collector, not the service,
	// sets the numbers.
	idle int

	// serve-batch: devices long-lived devices; each call carries
	// callEvents events, deviceEvents per device.
	devices, callEvents, deviceEvents int
	// candidate proposes a distinct candidate database in set-up, so
	// every event is also shadow-scored.
	candidate bool

	// warmupCalls are made before measuring; qualityEvents is the fixed
	// stream prefix the quality metrics average over.
	warmupCalls, qualityEvents int
	// maxCallsPerSecond sizes the preallocated latency sample.
	maxCallsPerSecond int
}

// journalCap is the per-shard decision journal size the served
// registry runs with; warm-up fills every shard's ring.
const journalCap = 128

var singleConfig = &serveConfig{
	name: "serve-single", tasks: 40, points: 80, trigger: "on-violation",
	slots: 64, sessionEvents: 32, cohortTable: true, idle: 8192,
	warmupCalls: 4 * 64 * 34, qualityEvents: 20000, maxCallsPerSecond: 8000,
}

var batchConfig = &serveConfig{
	name: "serve-batch", tasks: 40, points: 500, trigger: "always", batch: true,
	devices: 1024, callEvents: 256, deviceEvents: 4, candidate: true,
	warmupCalls: 48, qualityEvents: 100000, maxCallsPerSecond: 2000,
}

// devsPerCall is how many distinct devices one batch call addresses.
func (c *serveConfig) devsPerCall() int { return c.callEvents / c.deviceEvents }

// groups is how many batch calls it takes to address every device once.
func (c *serveConfig) groups() int { return c.devices / c.devsPerCall() }

// device is one session (serve-single) or long-lived device
// (serve-batch) with its seeded event stream.
type device struct {
	n       int
	id      string
	gamma   float64
	prc     float64
	initial runtime.QoSSpec
	src     *rng.Source
	specs   *runtime.SpecStream
	// events is a session's QoS event count; phase is the next step:
	// 0 registers, 1..events sends event phase, events+1 deregisters.
	events int
	phase  int
	// seq is the last sequence number issued.
	seq uint64
}

var prcs = [...]float64{0.25, 0.5, 0.75}

// newDevice derives device n's parameters and event stream from the
// seed: odd devices run AuRA at cohortGamma, even ones uRA.
func newDevice(seed int64, model *runtime.QoSModel, n int) *device {
	src := stream(seed, labelDevices+int64(n))
	d := &device{n: n, id: fmt.Sprintf("dev-%06d", n), prc: prcs[n%len(prcs)], src: src, specs: model.Stream()}
	if n%2 == 1 {
		d.gamma = cohortGamma
	}
	d.initial = model.Sample(src)
	return d
}

func (d *device) registerRequest(trigger string) fleet.RegisterRequest {
	return fleet.RegisterRequest{
		ID: d.id, Database: dbName, PRC: d.prc, Trigger: trigger, Gamma: d.gamma,
		Initial: fleet.QoSSpecJSON{SMaxMs: d.initial.SMaxMs, FMin: d.initial.FMin},
	}
}

// nextEvent advances the device's stream by one QoS event.
func (d *device) nextEvent() (uint64, runtime.QoSSpec) {
	d.seq++
	return d.seq, d.specs.Next(d.src)
}

type callKind uint8

const (
	callRegister callKind = iota
	callQoS
	callDeregister
)

// singleScript is serve-single's call sequence: slots sessions served
// round-robin, one call per turn. The first slots sessions are
// registered in set-up and staggered (session n < slots sends
// sessionEvents - n*sessionEvents/slots events), so registrations and
// deregistrations spread evenly over the run.
type singleScript struct {
	cfg    *serveConfig
	seed   int64
	model  *runtime.QoSModel
	slots  []*device
	next   int
	cursor int
}

func newSingleScript(cfg *serveConfig, seed int64, model *runtime.QoSModel) *singleScript {
	s := &singleScript{cfg: cfg, seed: seed, model: model}
	for n := 0; n < cfg.slots; n++ {
		d := s.session(n)
		d.phase = 1
		s.slots = append(s.slots, d)
	}
	s.next = cfg.slots
	return s
}

func (s *singleScript) session(n int) *device {
	d := newDevice(s.seed, s.model, n)
	d.events = s.cfg.sessionEvents
	if n < s.cfg.slots {
		d.events -= n * s.cfg.sessionEvents / s.cfg.slots
	}
	return d
}

// step returns the next call: its kind, the session, and for QoS
// events the sequence number and specification.
func (s *singleScript) step() (callKind, *device, uint64, runtime.QoSSpec) {
	d := s.slots[s.cursor]
	var kind callKind
	var seq uint64
	var spec runtime.QoSSpec
	switch {
	case d.phase == 0:
		kind = callRegister
		d.phase = 1
	case d.phase <= d.events:
		kind = callQoS
		seq, spec = d.nextEvent()
		d.phase++
	default:
		kind = callDeregister
		s.slots[s.cursor] = s.session(s.next)
		s.next++
	}
	s.cursor = (s.cursor + 1) % len(s.slots)
	return kind, d, seq, spec
}

// batchEvent is one event of a batch call.
type batchEvent struct {
	d    *device
	seq  uint64
	spec runtime.QoSSpec
}

// batchScript is serve-batch's call sequence. Devices are split into
// groups of devsPerCall; call c addresses group c mod groups, with
// deviceEvents events per device interleaved across the group.
type batchScript struct {
	cfg  *serveConfig
	devs []*device
	call int
}

func newBatchScript(cfg *serveConfig, seed int64, model *runtime.QoSModel) *batchScript {
	s := &batchScript{cfg: cfg}
	for n := 0; n < cfg.devices; n++ {
		s.devs = append(s.devs, newDevice(seed, model, n))
	}
	return s
}

func (s *batchScript) step(buf []batchEvent) []batchEvent {
	per := s.cfg.devsPerCall()
	group := s.devs[(s.call%s.cfg.groups())*per:][:per]
	s.call++
	for j := 0; j < s.cfg.deviceEvents; j++ {
		for _, d := range group {
			seq, spec := d.nextEvent()
			buf = append(buf, batchEvent{d: d, seq: seq, spec: spec})
		}
	}
	return buf
}

// globalIndex is the position of device n's k-th event (0-based) in
// the batch script's event order.
func (c *serveConfig) globalIndex(n, k int) int {
	per := c.devsPerCall()
	call := (k/c.deviceEvents)*c.groups() + n/per
	return call*c.callEvents + (k%c.deviceEvents)*per + n%per
}

// record is the served side of one device's decision stream: a hash
// chain over every decision it was served, for the oracle.
type record struct {
	hash uint64
	n    int
	bad  bool // a call for this device failed; already counted
}

// serveHarness is one set-up: generated databases, a running server
// and a client bound to it.
type serveHarness struct {
	cfg    *serveConfig
	seed   int64
	space  *mapping.Space
	db     *dse.Database
	model  runtime.QoSModel
	vt     *runtime.ValueTable
	srv    *fleet.Server
	served chan error
	base   string
	tr     *http.Transport
	cl     *client.Client
}

// randomPoints draws n distinct random mappings and evaluates them:
// a synthetic database with the feasibility spread of a real one at a
// size a quick exploration cannot reach.
func randomPoints(ev *schedule.Evaluator, src *rng.Source, n int, seen map[string]bool) ([]*dse.DesignPoint, error) {
	var pts []*dse.DesignPoint
	for len(pts) < n {
		m := ev.Space.Random(src)
		k := m.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		res, err := ev.Evaluate(m)
		if err != nil {
			return nil, err
		}
		pts = append(pts, &dse.DesignPoint{
			M: m, MakespanMs: res.MakespanMs, Reliability: res.Reliability,
			EnergyMJ: res.EnergyMJ, PeakPowerW: res.PeakPowerW, MTTFMs: res.MTTFMs,
		})
	}
	return pts, nil
}

// numbered copies the points into a database with dense IDs.
func numbered(version uint64, pts []*dse.DesignPoint) *dse.Database {
	db := &dse.Database{Name: dbName, Version: version}
	for i, p := range pts {
		q := *p
		q.ID = i
		db.Points = append(db.Points, &q)
	}
	return db
}

// setupServe builds the databases, starts the server on loopback,
// publishes the cohort table, registers the initial devices and
// proposes the candidate. A non-nil tracer installs the edge
// middleware and the transport span recorder (both idle until the
// tracer is switched on).
func setupServe(cfg *serveConfig, seed int64, t *tracer) (*serveHarness, error) {
	h := &serveHarness{cfg: cfg, seed: seed}
	plat := platform.Default()
	g, err := taskgraph.Generate(taskgraph.GenParams{Seed: stream(fixtureSeed, labelGraph).Int63(), NumTasks: cfg.tasks}, plat)
	if err != nil {
		return nil, err
	}
	h.space = &mapping.Space{Graph: g, Platform: plat, Catalogue: relmodel.DefaultCatalogue()}
	ev := &schedule.Evaluator{Space: h.space, Env: relmodel.DefaultEnv()}
	seen := make(map[string]bool)
	pts, err := randomPoints(ev, stream(fixtureSeed, labelActive), cfg.points, seen)
	if err != nil {
		return nil, err
	}
	h.db = numbered(0, pts)
	h.model = runtime.ModelFromDatabase(h.db)
	var cand *dse.Database
	if cfg.candidate {
		// An evolved version: a fifth of the points replaced.
		var kept []*dse.DesignPoint
		for i, p := range pts {
			if i%5 != 4 {
				kept = append(kept, p)
			}
		}
		extra, err := randomPoints(ev, stream(fixtureSeed, labelCandidate), cfg.points-len(kept), seen)
		if err != nil {
			return nil, err
		}
		cand = numbered(1, append(kept, extra...))
	}

	srv, err := fleet.NewServer(fleet.ServerConfig{
		Databases: []fleet.NamedDatabase{{Name: dbName, DB: h.db, Space: h.space}},
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
		TraceSeed: seed,
		// A journal that is already full when measuring starts: with
		// the 4096-entry default it would keep filling through a run,
		// and live heap and GC work would depend on how far a run got.
		JournalCap: journalCap,
	})
	if err != nil {
		return nil, err
	}
	if t != nil {
		srv.Wrap(t.middleware)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h.srv, h.served = srv, make(chan error, 1)
	go func() { h.served <- srv.Serve(ln) }()
	h.base = "http://" + ln.Addr().String()
	h.tr = http.DefaultTransport.(*http.Transport).Clone()
	h.tr.MaxConnsPerHost = 1
	h.tr.MaxIdleConnsPerHost = 1
	var rt http.RoundTripper = h.tr
	if t != nil {
		rt = &tracedTransport{base: h.tr, t: t}
	}
	h.cl = client.New(client.Config{BaseURL: h.base, Transport: rt, JitterSeed: seed, Binary: cfg.batch})
	if err := h.populate(cand); err != nil {
		//lint:allow errdrop the set-up error is what the caller needs
		_ = h.close()
		return nil, err
	}
	return h, nil
}

// populate publishes the cohort table, registers the idle fleet
// through the registry and the initial devices through the client, and
// proposes the candidate database, if any.
func (h *serveHarness) populate(cand *dse.Database) error {
	reg := h.srv.Registry()
	if h.cfg.cohortTable {
		vt, err := cohortTable(h.db, h.space)
		if err != nil {
			return err
		}
		_, fp, err := reg.ActiveSnapshot(dbName)
		if err != nil {
			return err
		}
		vt.DBFingerprint = fp
		if err := reg.PublishValueTable(dbName, vt); err != nil {
			return err
		}
		h.vt = vt
	}
	var initial []*device
	if h.cfg.batch {
		initial = newBatchScript(h.cfg, h.seed, &h.model).devs
	} else {
		initial = newSingleScript(h.cfg, h.seed, &h.model).slots
	}
	trig, err := fleet.ParseTrigger(h.cfg.trigger)
	if err != nil {
		return err
	}
	boot := h.model.Sample(stream(fixtureSeed, labelIdle))
	for n := 0; n < h.cfg.idle; n++ {
		p := fleet.DeviceParams{ID: fmt.Sprintf("idle-%06d", n), Database: dbName, PRC: prcs[n%len(prcs)], Trigger: trig, Initial: boot}
		if n%2 == 1 {
			p.Gamma = cohortGamma
		}
		if _, err := reg.Register(p); err != nil {
			return err
		}
	}
	ctx := context.Background()
	for _, d := range initial {
		if _, err := h.cl.Register(ctx, d.registerRequest(h.cfg.trigger)); err != nil {
			return fmt.Errorf("registering %s: %w", d.id, err)
		}
	}
	if cand != nil {
		return reg.ProposeDatabase(dbName, cand)
	}
	return nil
}

// cohortTable learns the cohort's value table the way an offline
// prior is learned: a pretrained AuRA agent's snapshot.
func cohortTable(db *dse.Database, space *mapping.Space) (*runtime.ValueTable, error) {
	ag := runtime.NewAgentForDB(db, cohortGamma, 0)
	p := runtime.Params{DB: db, Space: space, PRC: 0.5, Trigger: runtime.TriggerOnViolation}
	if err := ag.Pretrain(p, 2e5, stream(fixtureSeed, labelTable).Int63()); err != nil {
		return nil, err
	}
	vt := ag.Snapshot()
	vt.Version, vt.Epoch = 1, 1
	vt.DBVersion = db.Version
	vt.Devices, vt.Events = 1, int(2e5/100)
	return vt, nil
}

// close stops the server and waits for it to return.
func (h *serveHarness) close() error {
	err := h.srv.Shutdown()
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if h.tr != nil {
		h.tr.CloseIdleConnections()
	}
	return err
}

// serveRun is one run of a serve workload over its last set-up.
type serveRun struct {
	cfg    *serveConfig
	h      *serveHarness
	tracer *tracer
	single *singleScript
	batch  *batchScript
	// calls counts script steps taken after set-up; the oracle replays
	// exactly that many.
	calls int
	// recs holds the served decision streams, by device number.
	recs []record
	req  uint32

	evs  []batchEvent
	wire []fleet.BatchEventJSON
}

// phase is one measured stretch of calls.
type phase struct {
	calls, decisions int
	failed           int
	wall             time.Duration
	lat              []float64 // µs per decision call or per batch call
	proc             procDelta
	windows          []window
}

// windowCalls is the length of one measurement window in calls: on
// serve-single one full session lifecycle of every slot, on
// serve-batch four rotations over the device groups, so every window
// carries exactly the same mix of calls.
func (c *serveConfig) windowCalls() int {
	if c.batch {
		return 4 * c.groups()
	}
	return c.slots * (c.sessionEvents + 2)
}

func (r *serveRun) rec(n int) *record {
	for len(r.recs) <= n {
		r.recs = append(r.recs, record{})
	}
	return &r.recs[n]
}

// runPhase makes calls in whole windows until dur has passed and the
// phase holds at least n latency samples (or, with dur 0, exactly n
// calls). Spans are recorded when traced is set.
func (r *serveRun) runPhase(dur time.Duration, n int, traced bool) (phase, error) {
	var ph phase
	if dur > 0 {
		ph.lat = make([]float64, 0, int(dur.Seconds()*float64(r.cfg.maxCallsPerSecond)))
	}
	p0 := snapProc()
	start := time.Now()
	win := newWindowClock(start)
	for dur > 0 || ph.calls < n {
		var err error
		if r.batch != nil {
			err = r.batchCall(&ph, traced)
		} else {
			err = r.singleCall(&ph, traced)
		}
		if err != nil {
			return ph, err
		}
		ph.calls++
		if dur > 0 && ph.calls%r.cfg.windowCalls() == 0 {
			ph.windows = append(ph.windows, win.close(ph.decisions))
			if time.Since(start) >= dur && len(ph.lat) >= n {
				break
			}
		}
	}
	ph.wall = time.Since(start)
	ph.proc = p0.to(snapProc())
	return ph, nil
}

// callCtx opens the call's root span when tracing.
func (r *serveRun) callCtx(name spanName, traced bool) (context.Context, spanRef) {
	r.req++
	if !traced {
		return context.Background(), spanRef{id: -1}
	}
	ref := r.tracer.root(name, r.req)
	return callContext(ref), ref
}

func (r *serveRun) finish(ref spanRef) {
	if ref.id >= 0 {
		r.tracer.finish(ref.id)
	}
}

func (r *serveRun) singleCall(ph *phase, traced bool) error {
	kind, d, seq, spec := r.single.step()
	r.calls++
	rec := r.rec(d.n)
	switch kind {
	case callRegister:
		ctx, ref := r.callCtx(spanRegister, traced)
		_, err := r.h.cl.Register(ctx, d.registerRequest(r.cfg.trigger))
		r.finish(ref)
		if err != nil {
			ph.failed++
			rec.bad = true
		}
	case callDeregister:
		ctx, ref := r.callCtx(spanDeregister, traced)
		err := r.h.cl.Deregister(ctx, d.id)
		r.finish(ref)
		if err != nil {
			ph.failed++
		}
	case callQoS:
		ctx, ref := r.callCtx(spanQoS, traced)
		t0 := time.Now()
		dec, err := r.h.cl.QoS(ctx, d.id, seq, fleet.QoSSpecJSON{SMaxMs: spec.SMaxMs, FMin: spec.FMin})
		lat := time.Since(t0)
		r.finish(ref)
		ph.decisions++
		if ph.lat != nil {
			ph.lat = append(ph.lat, float64(lat)/1e3)
		}
		if err != nil || dec.Degraded || dec.Seq != seq || dec.Device != d.id {
			ph.failed++
			rec.bad = true
			return nil
		}
		rec.hash = hashServed(rec.hash, dec)
		rec.n++
	}
	return nil
}

func (r *serveRun) batchCall(ph *phase, traced bool) error {
	r.evs = r.batch.step(r.evs[:0])
	r.calls++
	r.wire = r.wire[:0]
	for _, e := range r.evs {
		r.wire = append(r.wire, fleet.BatchEventJSON{
			Device: e.d.id, Seq: e.seq,
			QoSSpecJSON: fleet.QoSSpecJSON{SMaxMs: e.spec.SMaxMs, FMin: e.spec.FMin},
		})
	}
	ctx, ref := r.callCtx(spanBatch, traced)
	t0 := time.Now()
	res, err := r.h.cl.DecideBatch(ctx, r.wire)
	lat := time.Since(t0)
	r.finish(ref)
	ph.decisions += len(r.evs)
	if ph.lat != nil {
		ph.lat = append(ph.lat, float64(lat)/1e3)
	}
	for i, e := range r.evs {
		rec := r.rec(e.d.n)
		if err != nil || res[i].Status != http.StatusOK || res[i].Decision == nil {
			ph.failed++
			rec.bad = true
			continue
		}
		dec := res[i].Decision
		if dec.Degraded || dec.Seq != e.seq || dec.Device != e.d.id {
			ph.failed++
			rec.bad = true
			continue
		}
		rec.hash = hashServed(rec.hash, dec)
		rec.n++
	}
	return nil
}

// runServe sets the workload up (setups times; setup_s is the median),
// warms up, measures, and checks every served decision against the
// reference oracle.
func runServe(cfg *serveConfig, o options) (map[string]float64, outcome, error) {
	var t *tracer
	if o.trace {
		t = newTracer(int(o.seconds * float64(cfg.maxCallsPerSecond) * 4))
	}
	var h *serveHarness
	var setups []float64
	for i := 0; i < o.setups; i++ {
		if h != nil {
			if err := h.close(); err != nil {
				return nil, outcome{}, err
			}
			h = nil
		}
		goruntime.GC()
		t0 := time.Now()
		var err error
		if h, err = setupServe(cfg, o.seed, t); err != nil {
			return nil, outcome{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		//lint:allow errdrop shutdown after the measurement cannot change the result
		_ = h.close()
	}()

	r := &serveRun{cfg: cfg, h: h, tracer: t}
	if cfg.batch {
		r.batch = newBatchScript(cfg, o.seed, &h.model)
	} else {
		r.single = newSingleScript(cfg, o.seed, &h.model)
	}
	retries0 := h.cl.Stats().Retries
	warm, err := r.runPhase(0, cfg.warmupCalls, false)
	if err != nil {
		return nil, outcome{}, err
	}
	out := outcome{attempted: int64(warm.decisions), failed: int64(warm.failed)}
	vals := make(map[string]float64)
	measured := time.Duration(o.seconds * float64(time.Second))

	var main, traced phase
	var m0, m1 promSnap
	if !o.trace {
		if main, err = r.runPhase(measured, 0, false); err != nil {
			return nil, outcome{}, err
		}
	} else {
		// An untraced share, at least a third and long enough for its
		// p99 to have minBeyond samples beyond it, then the traced
		// rest: the traced run's overhead is measured against its own
		// untraced phase.
		if main, err = r.runPhase(measured/3, samplesFor(990), false); err != nil {
			return nil, outcome{}, err
		}
		scraper := &http.Client{Transport: &http.Transport{}}
		if m0, err = scrape(scraper, h.base); err != nil {
			return nil, outcome{}, err
		}
		t.on.Store(true)
		traced, err = r.runPhase(measured-measured/3, 0, true)
		t.on.Store(false)
		if err != nil {
			return nil, outcome{}, err
		}
		if m1, err = scrape(scraper, h.base); err != nil {
			return nil, outcome{}, err
		}
		scraper.CloseIdleConnections()
	}
	lat := summarize(main.lat)
	main.lat = nil
	var heap float64
	if !o.trace {
		heap = liveHeapMB()
	}
	out.attempted += int64(main.decisions + traced.decisions)
	out.failed += int64(main.failed + traced.failed)
	if retries := h.cl.Stats().Retries - retries0; retries > 0 {
		out.failed += retries
		out.problems = append(out.problems, fmt.Sprintf("%d client retries", retries))
	}

	orc, err := r.check()
	if err != nil {
		return nil, outcome{}, fmt.Errorf("oracle: %w", err)
	}
	out.failed += int64(orc.failed)
	out.problems = append(out.problems, orc.problems...)

	if !o.trace {
		vals["setup_s"] = median(setups)
		vals["ops_per_s"] = medianRate(main.windows)
		vals["p50_us"] = lat.p50
		vals["p90_us"] = lat.p90
		vals["cpu_us_per_op"] = medianCPUPerOp(main.windows)
		vals["live_heap_mb"] = heap
		vals["drc_ms_per_event"] = orc.drcSum / float64(orc.qualityN)
		vals["energy_mj_per_event"] = orc.energySum / float64(orc.qualityN)
		vals["hv"] = databaseHV(h.db)
		warnTail("p90_us", lat.n, 900)
		return vals, out, nil
	}
	r.layerMetrics(vals, main, traced, m0, m1, orc)
	vals["p99_us"] = lat.p99
	warnTail("p99_us", lat.n, 990)
	vals["client.retries"] = float64(h.cl.Stats().Retries - retries0)
	if err := t.write(fmtTracePath(o, cfg.name)); err != nil {
		return nil, outcome{}, fmt.Errorf("writing spans: %w", err)
	}
	return vals, out, nil
}

// layerMetrics fills the per-layer report of a traced serve run. Times
// are per QoS call on serve-single and per event on serve-batch.
func (r *serveRun) layerMetrics(vals map[string]float64, untraced, traced phase, m0, m1 promSnap, orc oracle) {
	for _, s := range perLayer {
		vals[s.name] = 0
	}
	L := r.tracer.layers()
	root := spanQoS
	if r.batch != nil {
		root = spanBatch
	}
	lt := L[root]
	events := float64(traced.decisions)
	us := func(ns int64) float64 { return float64(ns) / 1e3 / events }

	decideSum := m1.delta(m0, "clr_fleet_decision_latency_seconds_sum") * 1e6 // µs
	stageSum := 0.0
	for _, st := range []struct{ series, name string }{
		{"filter", "runtime.filter_us"}, {"score", "runtime.score_us"},
		{"switch", "runtime.switch_us"}, {"agent_update", "runtime.agent_update_us"},
	} {
		v := m1.delta(m0, `clr_decision_stage_seconds_sum{stage="`+st.series+`"}`) * 1e6
		vals[st.name] = v / events
		stageSum += v
	}
	edge := float64(lt[spanEdge].dur) / 1e3 // µs over the phase
	// The registry decides a batch's shards in parallel; its share of
	// the handler's wall time is taken as busy time spread over every
	// core (an upper bound on the edge's own time). The single-event
	// path decides inline, so there busy time is wall time.
	cover := decideSum
	if r.batch != nil {
		cover = math.Min(decideSum/float64(goruntime.GOMAXPROCS(0)), edge)
		if edge > 0 {
			vals["fleet.fanout"] = decideSum / edge
		}
	} else if edge > 0 {
		vals["fleet.fanout"] = decideSum / edge
	}
	vals["client.self_us"] = us(lt[root].self)
	vals["transport.self_us"] = us(lt[spanTransport].self)
	vals["fleet.edge_self_us"] = (edge - cover) / events
	vals["fleet.decide_us"] = decideSum / events
	vals["fleet.registry_self_us"] = (decideSum - stageSum) / events

	lifecycle := 0.0
	if n := L[spanRegister][spanRegister].count; n > 0 {
		vals["fleet.register_us"] = float64(L[spanRegister][spanRegister].dur) / 1e3 / float64(n)
		lifecycle += float64(L[spanRegister][spanRegister].dur) / 1e3
	}
	if n := L[spanDeregister][spanDeregister].count; n > 0 {
		vals["fleet.deregister_us"] = float64(L[spanDeregister][spanDeregister].dur) / 1e3 / float64(n)
		lifecycle += float64(L[spanDeregister][spanDeregister].dur) / 1e3
	}

	if orc.served > 0 {
		vals["runtime.candidates_per_event"] = float64(orc.candidates) / float64(orc.served)
		vals["runtime.trigger_skip_share"] = float64(orc.skips) / float64(orc.served)
		vals["runtime.reconfig_share"] = float64(orc.reconfigs) / float64(orc.served)
	}
	if sh := m1.delta(m0, "clr_evolve_shadow_events_total"); sh > 0 {
		vals["evolve.shadow_divergence_share"] = m1.delta(m0, "clr_evolve_shadow_divergences_total") / sh
	}
	vals["cohort.priors_applied"] = m1.delta(m0, "clr_cohort_priors_applied_total")
	vals["events_per_call"] = events / float64(lt[root].count)

	ud := float64(untraced.decisions)
	vals["go.allocs_per_op"] = float64(untraced.proc.allocObjs) / ud
	vals["go.alloc_bytes_per_op"] = float64(untraced.proc.allocBytes) / ud
	vals["go.gc_cycles"] = float64(untraced.proc.gcCycles)
	vals["go.gc_cpu_share"] = untraced.proc.gcShare

	e2e := float64(traced.wall.Nanoseconds()) / 1e3 / events
	res := residual(e2e,
		vals["client.self_us"], vals["transport.self_us"], vals["fleet.edge_self_us"],
		cover/events, lifecycle/events)
	vals["traced_mean_us"] = e2e
	vals["residual_us"] = res
	vals["residual_ms"] = res / 1e3
	vals["residual_share"] = res / e2e
	vals["trace_overhead_share"] = e2e/(float64(untraced.wall.Nanoseconds())/1e3/ud) - 1
}

// databaseHV is the hypervolume of the database's (J, S, 1-F) points
// against a reference 10% beyond the worst stored value of each, as a
// share of the box the reference spans.
func databaseHV(db *dse.Database) float64 {
	pts := make([][]float64, 0, db.Len())
	ref := []float64{0, 0, 0}
	for _, p := range db.Points {
		o := []float64{p.EnergyMJ, p.MakespanMs, 1 - p.Reliability}
		for i := range ref {
			ref[i] = math.Max(ref[i], o[i])
		}
		pts = append(pts, o)
	}
	for i := range ref {
		ref[i] *= 1.1
	}
	return frontHV(pts, ref)
}

// frontHV is the hypervolume of the points' non-dominated subset as a
// share of the box between the origin and ref, so sets with different
// objective scales average with equal weight.
func frontHV(pts [][]float64, ref []float64) float64 {
	var front [][]float64
	for _, i := range pareto.NonDominated(pts) {
		front = append(front, pts[i])
	}
	box := 1.0
	for _, r := range ref {
		box *= r
	}
	return pareto.Hypervolume(front, ref) / box
}
