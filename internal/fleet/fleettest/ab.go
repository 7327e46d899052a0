package fleettest

// Deterministic A/B harness for the cohort-AuRA evaluation: one seeded
// fleet event schedule, replayed through four arms that differ only in
// how (and whether) value knowledge reaches the devices:
//
//	ura      — plain uRA devices (no agent)
//	aura0    — AuRA(γ=0) devices seeded from a published γ=0 cohort
//	           table: the identity arm; the paper subsumes uRA into
//	           AuRA at γ=0, so its decision stream must be
//	           byte-identical to ura's
//	aura     — per-device AuRA(γ): each device learns alone from zero
//	cohort   — cohort AuRA(γ): cold-start devices inherit a cohort
//	           table aggregated from a warm fleet's journal
//
// Everything is derived from ABParams.Seed: the warm fleet's scripts,
// the cold devices' scripts, and the interleaving (event-major over
// devices in ID order) are all fixed, so two runs with equal params
// produce byte-identical per-arm decision streams — the property
// TestABReplayable pins.

import (
	"fmt"
	"math"
	"strings"

	"clrdse/internal/cohort"
	"clrdse/internal/dse"
	"clrdse/internal/fleet"
	"clrdse/internal/rng"
	"clrdse/internal/runtime"
)

// tightBand returns a specification only the database's fastest
// stored point(s) satisfy — the opposite pole of LooseSpec — plus the
// makespan headroom to the second-fastest stored point: jitter inside
// half that band never changes the feasible set. Alternating the two
// specs is the regime where value knowledge pays: under the loose spec
// the energy-minimal point looks attractive, but every tight event
// forces a reconfiguration back, and only a learned VD (the discounted
// future-dRC estimate) exposes that churn to the scorer.
func tightBand(db *dse.Database) (runtime.QoSSpec, float64) {
	minS, second := math.Inf(1), math.Inf(1)
	minF := math.Inf(1)
	for _, p := range db.Points {
		switch {
		case p.MakespanMs < minS:
			second = minS
			minS = p.MakespanMs
		case p.MakespanMs > minS && p.MakespanMs < second:
			second = p.MakespanMs
		}
		if p.Reliability < minF {
			minF = p.Reliability
		}
	}
	band := 0.0
	if !math.IsInf(second, 1) {
		band = second - minS
	}
	return runtime.QoSSpec{SMaxMs: minS, FMin: minF}, band
}

// OscillatingScript precomputes a device's deterministic tight/loose
// QoS event sequence: specs alternate between the tight spec and LooseSpec
// with a seeded phase and seeded jitter on the makespan bound that
// never changes either spec's feasible set. Equal seeds yield
// identical scripts.
func OscillatingScript(db *dse.Database, seed int64, events int) []runtime.QoSSpec {
	src := rng.New(seed)
	loose := LooseSpec(db)
	tight, band := tightBand(db)
	phase := src.IntRange(0, 1)
	specs := make([]runtime.QoSSpec, events)
	for i := range specs {
		if (i+phase)%2 == 0 {
			s := loose
			s.SMaxMs *= 1 + 0.05*src.Float64() // only ever looser
			specs[i] = s
		} else {
			s := tight
			s.SMaxMs += 0.5 * band * src.Float64() // below the second point
			specs[i] = s
		}
	}
	return specs
}

// ABParams sizes the harness. Zero values select the defaults noted on
// each field; Seed 0 selects seed 1.
type ABParams struct {
	// Devices is the cold-start device count per arm (default 4).
	Devices int
	// Events is the QoS event count per cold device (default 40).
	Events int
	// WarmDevices and WarmEvents size the warm fleet whose journal the
	// cohort table is aggregated from (defaults 6 and 60).
	WarmDevices int
	WarmEvents  int
	// Gamma is the AuRA discount of the learning arms (default 0.8).
	Gamma float64
	// PRC is every device's reconfiguration-cost knob (default 0.5).
	PRC float64
	// Seed roots every event script (default 1).
	Seed int64
}

func (p *ABParams) defaults() {
	if p.Devices <= 0 {
		p.Devices = 4
	}
	if p.Events <= 0 {
		p.Events = 40
	}
	if p.WarmDevices <= 0 {
		p.WarmDevices = 6
	}
	if p.WarmEvents <= 0 {
		p.WarmEvents = 60
	}
	if p.Gamma == 0 {
		p.Gamma = 0.8
	}
	if p.PRC == 0 {
		p.PRC = 0.5
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// ArmResult is one arm's replayable outcome.
type ArmResult struct {
	Arm string `json:"arm"`
	// Stream is the arm's full decision stream, one key per decision
	// in the fixed interleaving order — the byte-comparison surface.
	Stream []string `json:"stream"`
	// Reconfigurations counts decisions that moved the configuration.
	Reconfigurations int `json:"reconfigurations"`
	// TotalDRCMs and MeanDRCMs aggregate reconfiguration cost over the
	// arm's decisions.
	TotalDRCMs float64 `json:"total_drc_ms"`
	MeanDRCMs  float64 `json:"mean_drc_ms"`
	// MeanEnergyMJ is the mean energy of the configurations the arm's
	// decisions selected.
	MeanEnergyMJ float64 `json:"mean_energy_mj"`
	// SettleIndex is the mean, over the arm's devices, of the number
	// of decisions before the device's behaviour becomes phase-
	// periodic: the 1-based index of the last decision whose chosen
	// point differs from the choice made two events earlier (the
	// schedule's period). Until that index the device is still
	// changing its policy — learning — and its per-decision dRC has
	// not reached steady state; 0 means steady from the start.
	SettleIndex float64 `json:"settle_index"`
}

// ABResult is the harness outcome, in fixed arm order.
type ABResult struct {
	Params ABParams    `json:"params"`
	Arms   []ArmResult `json:"arms"`
	// Tables holds the cohort value table each seeded arm published
	// before registering its devices, keyed by arm name — the triage
	// artifact a failing A/B test writes to SOAK_ARTIFACT_DIR.
	Tables map[string]*runtime.ValueTable `json:"tables,omitempty"`
}

// Arm returns the named arm's result, nil when absent.
func (r *ABResult) Arm(name string) *ArmResult {
	for i := range r.Arms {
		if r.Arms[i].Arm == name {
			return &r.Arms[i]
		}
	}
	return nil
}

// DecisionKey serialises one decision for byte-level stream
// comparison: every field that distinguishes two decisions on the same
// event schedule, none that depends on wall clock or scheduling.
func DecisionKey(device string, seq int, d runtime.Decision) string {
	return fmt.Sprintf("%s/%d:%d->%d r=%v v=%v drc=%.9g", device, seq, d.From, d.To, d.Reconfigured, d.Violated, d.Cost.Total())
}

// RunAB replays the seeded schedule through all four arms and returns
// their streams and fleet-wide summaries. It is TB-free so both tests
// and cmd/experiments can embed it.
func RunAB(p ABParams) (*ABResult, error) {
	p.defaults()
	f, err := build()
	if err != nil {
		return nil, err
	}
	db := f.red
	spec := LooseSpec(db)

	// Cold-device scripts, shared across arms so the arms differ only
	// in value knowledge.
	scripts := make([][]runtime.QoSSpec, p.Devices)
	for i := range scripts {
		scripts[i] = OscillatingScript(db, p.Seed+int64(i)*101, p.Events)
	}

	// Warm fleet: AuRA(γ) devices whose journal becomes the cohort
	// table. Their scripts draw from seeds disjoint with the cold ones.
	warm, err := fleet.NewRegistry(namedDBs(f), 4)
	if err != nil {
		return nil, err
	}
	for i := 0; i < p.WarmDevices; i++ {
		id := fmt.Sprintf("warm-%02d", i)
		if _, err := warm.Register(fleet.DeviceParams{
			ID: id, Database: "red", PRC: p.PRC, Gamma: p.Gamma, Initial: spec,
		}); err != nil {
			return nil, err
		}
		for _, s := range OscillatingScript(db, p.Seed+100_000+int64(i)*103, p.WarmEvents) {
			if _, err := warm.Decide(id, s); err != nil {
				return nil, err
			}
		}
	}
	entries := warm.DecisionsForDatabase("red", 0)
	_, fp, err := warm.ActiveSnapshot("red")
	if err != nil {
		return nil, err
	}
	table := func(gamma float64) (*runtime.ValueTable, error) {
		t, err := cohort.Aggregate(cohort.AggregateParams{
			DB: db, DBFingerprint: fp, Gamma: gamma,
		}, entries)
		if err != nil {
			return nil, fmt.Errorf("fleettest: aggregate warm journal: %w", err)
		}
		t.Version, t.Epoch = 1, 1
		return t, nil
	}

	arms := []struct {
		name      string
		gamma     float64
		withAgent bool
		seeded    bool // publish a cohort table before registration
	}{
		{"ura", 0, false, false},
		{"aura0", 0, true, true},
		{"aura", p.Gamma, false, false},
		{"cohort", p.Gamma, false, true},
	}
	out := &ABResult{Params: p, Tables: make(map[string]*runtime.ValueTable)}
	for _, arm := range arms {
		reg, err := fleet.NewRegistry(namedDBs(f), 4)
		if err != nil {
			return nil, err
		}
		if arm.seeded {
			t, err := table(arm.gamma)
			if err != nil {
				return nil, err
			}
			if err := reg.PublishValueTable("red", t); err != nil {
				return nil, fmt.Errorf("fleettest: publish %s table: %w", arm.name, err)
			}
			out.Tables[arm.name] = t
		}
		res := ArmResult{Arm: arm.name}
		chosen := make([][]int, p.Devices) // per-device To sequence
		for i := 0; i < p.Devices; i++ {
			if _, err := reg.Register(fleet.DeviceParams{
				ID: fmt.Sprintf("dev-%02d", i), Database: "red", PRC: p.PRC,
				Gamma: arm.gamma, WithAgent: arm.withAgent, Initial: spec,
			}); err != nil {
				return nil, err
			}
		}
		// Event-major interleaving: every device sees event e before
		// any device sees event e+1, like synchronized fleet traffic.
		for e := 0; e < p.Events; e++ {
			for i := 0; i < p.Devices; i++ {
				dec, err := reg.Decide(fmt.Sprintf("dev-%02d", i), scripts[i][e])
				if err != nil {
					return nil, err
				}
				res.Stream = append(res.Stream, DecisionKey(fmt.Sprintf("dev-%02d", i), e+1, dec))
				if dec.Reconfigured {
					res.Reconfigurations++
				}
				res.TotalDRCMs += dec.Cost.Total()
				res.MeanEnergyMJ += db.Points[dec.To].EnergyMJ
				chosen[i] = append(chosen[i], dec.To)
			}
		}
		n := p.Devices * p.Events
		res.MeanDRCMs = res.TotalDRCMs / float64(n)
		res.MeanEnergyMJ /= float64(n)
		for _, seq := range chosen {
			settle := 0
			for e := 2; e < len(seq); e++ {
				if seq[e] != seq[e-2] {
					settle = e + 1
				}
			}
			res.SettleIndex += float64(settle)
		}
		res.SettleIndex /= float64(p.Devices)
		out.Arms = append(out.Arms, res)
	}
	return out, nil
}

// Render formats the summary as the fixed-width table cmd/experiments
// prints (the streams are omitted; they are the test surface).
func (r *ABResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cohort A/B: %d devices x %d events, warm %d x %d, gamma %.2f, seed %d\n\n",
		r.Params.Devices, r.Params.Events, r.Params.WarmDevices, r.Params.WarmEvents,
		r.Params.Gamma, r.Params.Seed)
	fmt.Fprintf(&b, "%-8s %8s %12s %12s %14s %12s\n",
		"arm", "reconfs", "total dRC ms", "mean dRC ms", "mean energy mJ", "settle idx")
	for _, a := range r.Arms {
		fmt.Fprintf(&b, "%-8s %8d %12.3f %12.4f %14.4f %12.2f\n",
			a.Arm, a.Reconfigurations, a.TotalDRCMs, a.MeanDRCMs, a.MeanEnergyMJ, a.SettleIndex)
	}
	b.WriteString("\nura and aura0 streams are byte-identical by construction (AuRA(γ=0) ≡ uRA);\n")
	b.WriteString("cohort inherits the warm fleet's value table at cold start, aura learns from zero.\n")
	return b.String()
}
