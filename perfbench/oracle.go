package main

// The serve workloads' reference oracle: every served decision must
// equal what a reference runtime.Manager decides when replayed on the
// same per-device event stream, with the same parameters and the same
// cohort prior. The replay runs after the measured phase.

import (
	"fmt"
	"math"
	goruntime "runtime"
	"sync"
	"sync/atomic"

	"clrdse/internal/dse"
	"clrdse/internal/fleet"
	"clrdse/internal/mapping"
	"clrdse/internal/runtime"
)

// Decisions are compared through a hash chain per device: each served
// decision is folded in on arrival, so the comparison needs constant
// memory however long the run.
const (
	hashOffset = 14695981039346656037
	hashPrime  = 1099511628211
)

func mix(h, v uint64) uint64 {
	h ^= v
	h *= hashPrime
	return h ^ h>>29
}

func mixF(h uint64, f float64) uint64 { return mix(h, math.Float64bits(f)) }

func mixB(h uint64, b bool) uint64 {
	if b {
		return mix(h, 1)
	}
	return mix(h, 0)
}

func mixS(h uint64, s string) uint64 {
	h = mix(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = mix(h, uint64(s[i]))
	}
	return h
}

// hashServed folds one decision as the wire delivered it.
func hashServed(h uint64, d *fleet.DecisionJSON) uint64 {
	if h == 0 {
		h = hashOffset
	}
	h = mix(h, uint64(d.From))
	h = mix(h, uint64(d.To))
	h = mixB(h, d.Reconfigured)
	h = mixB(h, d.Violated)
	h = mixF(h, d.CostMs)
	h = mixF(h, d.BinaryMigrationMs)
	h = mixF(h, d.BitstreamMs)
	h = mix(h, uint64(d.MigratedTasks))
	h = mix(h, uint64(d.ReloadedPRRs))
	h = mix(h, uint64(len(d.Plan)))
	for _, a := range d.Plan {
		h = mixS(h, a.Kind)
		h = mix(h, uint64(a.Task))
		h = mix(h, uint64(a.PE))
		h = mix(h, uint64(a.PRR))
		h = mix(h, uint64(a.Bitstream))
		h = mixF(h, a.CostMs)
	}
	return h
}

// hashDecision folds one reference decision in the same canonical
// form as hashServed.
func hashDecision(h uint64, d runtime.Decision) uint64 {
	if h == 0 {
		h = hashOffset
	}
	h = mix(h, uint64(d.From))
	h = mix(h, uint64(d.To))
	h = mixB(h, d.Reconfigured)
	h = mixB(h, d.Violated)
	h = mixF(h, d.Cost.Total())
	h = mixF(h, d.Cost.BinaryMigrationMs)
	h = mixF(h, d.Cost.BitstreamMs)
	h = mix(h, uint64(d.Cost.MigratedTasks))
	h = mix(h, uint64(d.Cost.ReloadedPRRs))
	h = mix(h, uint64(len(d.Plan)))
	for _, a := range d.Plan {
		h = mixS(h, a.Kind.String())
		h = mix(h, uint64(a.Task))
		h = mix(h, uint64(a.PE))
		h = mix(h, uint64(a.PRR))
		h = mix(h, uint64(a.Bitstream))
		h = mixF(h, a.CostMs)
	}
	return h
}

// oracle is the outcome of the replay: failures, the quality metrics
// over the fixed stream prefix, and decision counts over the served
// events.
type oracle struct {
	failed   int
	problems []string

	qualityN          int
	drcSum, energySum float64

	served, candidates, skips, reconfigs int
}

// replayStats is one device's share of an oracle.
type replayStats struct {
	rec                                  record
	qualityN                             int
	drcSum, energySum                    float64
	served, candidates, skips, reconfigs int
}

func (s *replayStats) decided(db *dse.Database, dec runtime.Decision, det runtime.DecisionDetail, served, quality bool) {
	if served {
		s.rec.hash = hashDecision(s.rec.hash, dec)
		s.rec.n++
		s.served++
		s.candidates += det.Candidates
		if det.TriggerSkipped {
			s.skips++
		}
		if dec.Reconfigured {
			s.reconfigs++
		}
	}
	if quality {
		s.qualityN++
		s.drcSum += dec.Cost.Total()
		s.energySum += db.Points[dec.To].EnergyMJ
	}
}

func (o *oracle) add(s *replayStats) {
	o.qualityN += s.qualityN
	o.drcSum += s.drcSum
	o.energySum += s.energySum
	o.served += s.served
	o.candidates += s.candidates
	o.skips += s.skips
	o.reconfigs += s.reconfigs
}

// compare checks one device's served stream against its replay.
func (o *oracle) compare(id string, served, want record) {
	if served.bad || (served.n == 0 && want.n == 0) {
		return // failed calls were counted when they happened
	}
	if served.n != want.n || served.hash != want.hash {
		o.failed += max(served.n, 1)
		if len(o.problems) < 5 {
			o.problems = append(o.problems, fmt.Sprintf("device %s: %d served decisions differ from the reference replay of %d", id, served.n, want.n))
		}
	}
}

// reference builds the managers the oracle replays.
type reference struct {
	db      *dse.Database
	space   *mapping.Space
	matrix  *mapping.DRCMatrix
	vt      *runtime.ValueTable
	trigger runtime.Trigger
}

func newReference(h *serveHarness) (*reference, error) {
	trig, err := fleet.ParseTrigger(h.cfg.trigger)
	if err != nil {
		return nil, err
	}
	return &reference{
		db: h.db, space: h.space, vt: h.vt, trigger: trig,
		matrix: mapping.NewDRCMatrix(h.space, h.db.Mappings()),
	}, nil
}

// manager boots the reference manager of a device as registration
// does, including the cohort prior for AuRA devices.
func (ref *reference) manager(d *device) (*runtime.Manager, error) {
	mp := runtime.ManagerParams{DB: ref.db, Space: ref.space, Matrix: ref.matrix, PRC: d.prc, Trigger: ref.trigger}
	if d.gamma > 0 {
		mp.Agent = runtime.NewAgentForDB(ref.db, d.gamma, 0)
	}
	m, err := runtime.NewManager(mp, d.initial)
	if err != nil {
		return nil, err
	}
	if ref.vt != nil {
		if _, err := m.ApplyValuePrior(ref.vt); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (r *serveRun) check() (oracle, error) {
	ref, err := newReference(r.h)
	if err != nil {
		return oracle{}, err
	}
	if r.batch != nil {
		return r.checkBatch(ref)
	}
	return r.checkSingle(ref)
}

// checkSingle replays serve-single's script: the served calls first,
// then on to the quality prefix if the run stopped short of it.
func (r *serveRun) checkSingle(ref *reference) (oracle, error) {
	var o oracle
	s := newSingleScript(r.cfg, r.h.seed, &r.h.model)
	mgrs := make(map[int]*runtime.Manager)
	for _, d := range s.slots {
		m, err := ref.manager(d)
		if err != nil {
			return o, err
		}
		mgrs[d.n] = m
	}
	var reps []replayStats
	decisions := 0
	for i := 0; i < r.calls || decisions < r.cfg.qualityEvents; i++ {
		kind, d, _, spec := s.step()
		switch kind {
		case callRegister:
			m, err := ref.manager(d)
			if err != nil {
				return o, err
			}
			mgrs[d.n] = m
		case callDeregister:
			delete(mgrs, d.n)
		case callQoS:
			dec, det := mgrs[d.n].OnQoSChangeObserved(spec, nil)
			for len(reps) <= d.n {
				reps = append(reps, replayStats{})
			}
			reps[d.n].decided(ref.db, dec, det, i < r.calls, decisions < r.cfg.qualityEvents)
			decisions++
		}
	}
	for n := 0; n < max(len(reps), len(r.recs)); n++ {
		var served, want record
		if n < len(r.recs) {
			served = r.recs[n]
		}
		if n < len(reps) {
			want = reps[n].rec
			o.add(&reps[n])
		}
		o.compare(fmt.Sprintf("dev-%06d", n), served, want)
	}
	return o, nil
}

// checkBatch replays each serve-batch device on its own (devices are
// independent), spread over the cores, and merges in device order so
// the sums do not depend on scheduling.
func (r *serveRun) checkBatch(ref *reference) (oracle, error) {
	var o oracle
	devs := newBatchScript(r.cfg, r.h.seed, &r.h.model).devs
	stats := make([]replayStats, len(devs))
	errs := make([]error, len(devs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < goruntime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(devs) {
					return
				}
				issued := int(r.batch.devs[i].seq)
				stats[i], errs[i] = ref.replayDevice(r.cfg, devs[i], issued)
			}
		}()
	}
	wg.Wait()
	for i := range devs {
		if errs[i] != nil {
			return o, errs[i]
		}
		o.add(&stats[i])
		var served record
		if i < len(r.recs) {
			served = r.recs[i]
		}
		o.compare(devs[i].id, served, stats[i].rec)
	}
	return o, nil
}

// replayDevice replays one batch device's first issued events, and
// further ones while they fall inside the quality prefix.
func (ref *reference) replayDevice(cfg *serveConfig, d *device, issued int) (replayStats, error) {
	var s replayStats
	m, err := ref.manager(d)
	if err != nil {
		return s, err
	}
	for k := 0; ; k++ {
		inQuality := cfg.globalIndex(d.n, k) < cfg.qualityEvents
		if k >= issued && !inQuality {
			return s, nil
		}
		_, spec := d.nextEvent()
		dec, det := m.OnQoSChangeObserved(spec, nil)
		s.decided(ref.db, dec, det, k < issued, inQuality)
	}
}
