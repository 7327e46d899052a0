package runtime

// Scenario-driven simulation: the paper's introductory example — a
// satellite whose acceptable error rate varies with the terrain under
// surveillance and whose battery level, a function of sunlight
// exposure and prior processing, forces the system to conserve energy
// at the cost of higher application error rate to keep processing
// perpetual. This file turns that story into a library feature:
//
//   - a Scenario scripts a timeline of operating regimes, each with
//     its own QoS-variation model and energy-harvest rate;
//   - an optional Battery couples consumption to the QoS process: when
//     the state of charge falls below the low watermark the manager
//     enters a low-power mode — it relaxes the reliability requirement
//     by the configured margin and switches to the most energy-frugal
//     feasible point — until the charge recovers past the high
//     watermark.
//
// The discrete-event mechanics (exponential inter-arrival, uRA/AuRA
// selection, dRC accounting) are identical to Simulate.

import (
	"fmt"
	"math"

	"clrdse/internal/mapping"
	"clrdse/internal/rng"
)

// Regime is one phase of a scripted scenario.
type Regime struct {
	// Name labels the regime in per-regime metrics.
	Name string
	// DurationCycles is the phase length in application execution
	// cycles.
	DurationCycles float64
	// QoS is the specification process in force during the phase.
	QoS QoSModel
	// HarvestMJPerCycle is the energy income while in this phase
	// (solar panels in sunlight, ~0 in eclipse). Ignored without a
	// battery.
	HarvestMJPerCycle float64
}

// Scenario is a timeline of regimes, optionally repeating.
type Scenario struct {
	Regimes []Regime
	// Repeat loops the timeline (an orbit); otherwise the last regime
	// persists to the end of the simulation.
	Repeat bool
}

// Validate checks the scenario.
func (s *Scenario) Validate() error {
	if len(s.Regimes) == 0 {
		return fmt.Errorf("runtime: scenario without regimes")
	}
	for i, r := range s.Regimes {
		if r.DurationCycles <= 0 {
			return fmt.Errorf("runtime: regime %d (%q) has non-positive duration", i, r.Name)
		}
		if r.HarvestMJPerCycle < 0 {
			return fmt.Errorf("runtime: regime %d (%q) has negative harvest", i, r.Name)
		}
	}
	return nil
}

// regimeAt maps a cycle time to the regime in force.
func (s *Scenario) regimeAt(t, total float64) *Regime {
	period := 0.0
	for i := range s.Regimes {
		period += s.Regimes[i].DurationCycles
	}
	x := t
	if s.Repeat {
		x = math.Mod(t, period)
	} else if x >= period {
		return &s.Regimes[len(s.Regimes)-1]
	}
	for i := range s.Regimes {
		if x < s.Regimes[i].DurationCycles {
			return &s.Regimes[i]
		}
		x -= s.Regimes[i].DurationCycles
	}
	_ = total
	return &s.Regimes[len(s.Regimes)-1]
}

// Battery models the energy store coupling consumption to policy.
type Battery struct {
	// CapacityMJ is the full charge (in mJ-per-cycle units times
	// cycles, matching J_app integration).
	CapacityMJ float64
	// InitialMJ is the boot charge (0 selects full).
	InitialMJ float64
	// LowWatermark and HighWatermark are state-of-charge fractions
	// bounding the low-power-mode hysteresis (0 selects 0.2/0.5).
	LowWatermark, HighWatermark float64
	// RelaxF is how much the reliability lower bound is loosened in
	// low-power mode (absolute, 0 selects 0.05): the paper's
	// "conserve energy at the cost of higher application error rate".
	RelaxF float64
}

func (b *Battery) withDefaults() Battery {
	q := *b
	if q.InitialMJ == 0 {
		q.InitialMJ = q.CapacityMJ
	}
	if q.LowWatermark == 0 {
		q.LowWatermark = 0.2
	}
	if q.HighWatermark == 0 {
		q.HighWatermark = 0.5
	}
	if q.RelaxF == 0 {
		q.RelaxF = 0.05
	}
	return q
}

func (b *Battery) validate() error {
	switch {
	case b.CapacityMJ <= 0:
		return fmt.Errorf("runtime: battery capacity must be positive")
	case b.InitialMJ < 0 || b.InitialMJ > b.CapacityMJ:
		return fmt.Errorf("runtime: initial charge outside [0, capacity]")
	case b.LowWatermark <= 0 || b.HighWatermark <= b.LowWatermark || b.HighWatermark > 1:
		return fmt.Errorf("runtime: watermarks must satisfy 0 < low < high <= 1")
	case b.RelaxF < 0 || b.RelaxF >= 1:
		return fmt.Errorf("runtime: RelaxF outside [0,1)")
	}
	return nil
}

// RegimeMetrics aggregates one regime's share of a scenario run.
type RegimeMetrics struct {
	Name            string
	Cycles          float64
	Events          int
	Reconfigs       int
	TotalDRC        float64
	EnergyMJ        float64 // cycle-integrated consumption
	ViolationEvents int
}

// ScenarioMetrics extends the flat metrics with scenario-specific
// accounting.
type ScenarioMetrics struct {
	Metrics
	// PerRegime holds one entry per scripted regime (merged across
	// repeats), in timeline order.
	PerRegime []RegimeMetrics
	// MinSoC and FinalSoC describe the battery trajectory (fractions
	// of capacity); both are 1 when no battery is configured.
	MinSoC, FinalSoC float64
	// DepletedCycles counts cycles spent at exactly zero charge.
	DepletedCycles float64
	// LowPowerEvents counts events handled in low-power mode.
	LowPowerEvents int
}

// ScenarioParams configures a scripted run. QoS inside Params is
// ignored; the scenario's regimes provide the specification process.
type ScenarioParams struct {
	// Params carries the database, space, pRC, trigger, policy, agent
	// and seed, exactly as for Simulate.
	Params
	// Scenario is the regime timeline.
	Scenario Scenario
	// Battery optionally couples energy to policy.
	Battery *Battery
}

// SimulateScenario runs the scripted discrete-event simulation.
func SimulateScenario(p ScenarioParams) (*ScenarioMetrics, error) {
	if err := p.Params.validate(); err != nil {
		return nil, err
	}
	if err := p.Scenario.Validate(); err != nil {
		return nil, err
	}
	var bat Battery
	if p.Battery != nil {
		bat = p.Battery.withDefaults()
		if err := bat.validate(); err != nil {
			return nil, err
		}
	}
	pp := p.Params.withDefaults()
	pp.QoS = p.Scenario.Regimes[0].QoS // placeholder; regimes supply specs

	r := rng.New(pp.Seed)
	eventRNG := r.Split(1)
	specRNG := r.Split(2)

	ix, err := NewIndex(pp.DB, pp.Space, pp.Matrix)
	if err != nil {
		return nil, err
	}
	sim := decider{ix: ix, prc: pp.PRC, trigger: pp.Trigger, policy: pp.Policy, agent: pp.Agent}
	if pp.Agent != nil {
		pp.Agent.resetClock()
	}
	met := &ScenarioMetrics{MinSoC: 1, FinalSoC: 1}
	regimeIdx := map[string]int{}
	for _, reg := range p.Scenario.Regimes {
		if _, ok := regimeIdx[reg.Name]; !ok {
			regimeIdx[reg.Name] = len(met.PerRegime)
			met.PerRegime = append(met.PerRegime, RegimeMetrics{Name: reg.Name})
		}
	}
	// Each regime keeps its own AR(1) stream state so re-entering a
	// regime resumes its process.
	streams := map[string]*SpecStream{}
	streamFor := func(reg *Regime) *SpecStream {
		if st, ok := streams[reg.Name]; ok {
			return st
		}
		st := reg.QoS.Stream()
		streams[reg.Name] = st
		return st
	}

	soc := bat.InitialMJ
	lowPower := false

	reg := p.Scenario.regimeAt(0, pp.Cycles)
	spec := streamFor(reg).Next(specRNG)
	cur, bootViolated := ix.cheapestFeasible(spec)
	met.FeasibilityChecks = cheapestInspections(ix.Len(), bootViolated)

	t := 0.0
	for {
		dt := eventRNG.Exponential(pp.MeanInterArrivalCycles)
		end := false
		if t+dt >= pp.Cycles {
			dt = pp.Cycles - t
			end = true
		}
		// Integrate consumption and harvest over [t, t+dt) in the
		// current regime. Regime boundaries within the interval are
		// resolved at sub-interval granularity.
		remaining := dt
		for remaining > 0 {
			rNow := p.Scenario.regimeAt(t, pp.Cycles)
			step := remaining
			// Advance at most to the end of the current regime slice.
			if left := regimeLeft(&p.Scenario, t); left > 0 && left < step {
				step = left
			}
			consume := step * pp.DB.Points[cur].EnergyMJ
			rm := &met.PerRegime[regimeIdx[rNow.Name]]
			rm.Cycles += step
			rm.EnergyMJ += consume
			if p.Battery != nil {
				soc += step*rNow.HarvestMJPerCycle - consume
				if soc <= 0 {
					// Approximate the unpowered tail of the interval
					// by the deficit's share of the net drain.
					met.DepletedCycles += math.Min(step, step*(-soc)/math.Max(consume, 1e-12))
					soc = 0
				}
				if soc > bat.CapacityMJ {
					soc = bat.CapacityMJ
				}
				frac := soc / bat.CapacityMJ
				if frac < met.MinSoC {
					met.MinSoC = frac
				}
			}
			t += step
			remaining -= step
		}
		if end {
			break
		}

		reg = p.Scenario.regimeAt(t, pp.Cycles)
		spec = streamFor(reg).Next(specRNG)

		// Battery hysteresis: low-power mode relaxes the reliability
		// bound and pins selection to minimum energy.
		if p.Battery != nil {
			frac := soc / bat.CapacityMJ
			if lowPower && frac >= bat.HighWatermark {
				lowPower = false
			} else if !lowPower && frac < bat.LowWatermark {
				lowPower = true
			}
		}
		effSpec := spec
		var next int
		var violated bool
		if lowPower {
			effSpec.FMin = math.Max(0, spec.FMin-bat.RelaxF)
			next, violated = ix.cheapestFeasible(effSpec)
			met.FeasibilityChecks += cheapestInspections(ix.Len(), violated)
			met.LowPowerEvents++
		} else {
			var detail DecisionDetail
			next, violated, detail = sim.decide(cur, effSpec, nil)
			met.FeasibilityChecks += inspections(ix.Len(), detail)
		}
		if next != cur {
			drc := ix.mat.Total(cur, next)
			met.Reconfigs++
			met.TotalDRC += drc
			met.TotalMigrations += mapping.MigratedTasks(ix.maps[cur], ix.maps[next])
			if drc > met.MaxDRC {
				met.MaxDRC = drc
			}
			rm := &met.PerRegime[regimeIdx[reg.Name]]
			rm.Reconfigs++
			rm.TotalDRC += drc
			cur = next
			if pp.Agent != nil {
				pp.Agent.step(cur, -pp.DB.Points[cur].EnergyMJ, drc, t)
			}
		} else if pp.Agent != nil {
			pp.Agent.step(cur, -pp.DB.Points[cur].EnergyMJ, 0, t)
		}
		if violated {
			met.ViolationEvents++
			met.PerRegime[regimeIdx[reg.Name]].ViolationEvents++
		}
		met.Events++
		met.PerRegime[regimeIdx[reg.Name]].Events++
	}
	if pp.Agent != nil {
		pp.Agent.flush()
	}

	total := 0.0
	for i := range met.PerRegime {
		total += met.PerRegime[i].EnergyMJ
	}
	met.AvgEnergyMJ = total / pp.Cycles
	if met.Events > 0 {
		met.AvgDRC = met.TotalDRC / float64(met.Events)
	}
	if p.Battery != nil {
		met.FinalSoC = soc / bat.CapacityMJ
	}
	return met, nil
}

// regimeLeft returns how many cycles remain in the regime slice active
// at time t (Inf when the final regime persists).
func regimeLeft(s *Scenario, t float64) float64 {
	period := 0.0
	for i := range s.Regimes {
		period += s.Regimes[i].DurationCycles
	}
	x := t
	if s.Repeat {
		x = math.Mod(t, period)
	} else if x >= period {
		return math.Inf(1)
	}
	for i := range s.Regimes {
		if x < s.Regimes[i].DurationCycles {
			return s.Regimes[i].DurationCycles - x
		}
		x -= s.Regimes[i].DurationCycles
	}
	return math.Inf(1)
}
