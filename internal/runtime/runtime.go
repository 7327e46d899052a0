// Package runtime implements the run-time adaptation of the paper's
// Section 4.3: a discrete-event Monte-Carlo simulation in which the
// QoS specification (S_SPEC, F_SPEC) changes at random instants and a
// run-time manager switches the system between stored design points.
//
// Discrete events arrive with exponentially distributed inter-arrival
// times (mean 100 application execution cycles in the paper's setup);
// each event draws a new QoS specification from a bivariate Gaussian.
// On each event the manager:
//
//  1. filters the stored design points for feasibility under the new
//     specification (Algorithm 1, line 3),
//  2. scores each feasible point by
//     RET(p) = pRC * norm(R(p)) - (1-pRC) * norm(dRC(p)),
//     where R(p) = -J_app(p) and dRC is the reconfiguration cost from
//     the current configuration (lines 5-9), and
//  3. reconfigures to the argmax (line 11).
//
// The user parameter pRC trades performance (energy) against
// adaptation cost: pRC=1 always chases the lowest-energy feasible
// point (the behaviour of the purely Pareto-oriented baseline), while
// pRC=0 minimises reconfiguration and therefore only moves on a QoS
// violation.
//
// AuRA (agent.go) replaces the instantaneous scores with learned
// per-state value functions; gamma = 0 recovers uRA exactly.
package runtime

import (
	"fmt"
	"math"

	"clrdse/internal/dse"
	"clrdse/internal/mapping"
	"clrdse/internal/rng"
)

// QoSSpec is one quality-of-service requirement: the system must keep
// average makespan at or below SMaxMs and functional reliability at or
// above FMin.
type QoSSpec struct {
	SMaxMs float64
	FMin   float64
}

// QoSModel draws QoS specifications from a bivariate Gaussian, clamped
// to a plausible envelope (the paper emulates QoS variation with a
// bivariate Gaussian distribution).
type QoSModel struct {
	// MeanS/StdS parameterise the makespan-bound marginal (ms).
	MeanS, StdS float64
	// MeanF/StdF parameterise the reliability-bound marginal.
	MeanF, StdF float64
	// Rho is the correlation between the two bounds. Tight deadlines
	// often coincide with relaxed reliability demands and vice versa,
	// so a negative value is typical.
	Rho float64
	// Persist is the AR(1) coefficient of the specification process:
	// 0 draws each event's spec independently, values towards 1 make
	// the operating scenario drift (successive requirements resemble
	// each other, as when a satellite slowly crosses terrain types).
	// Innovations are bivariate Gaussian; the stationary marginal
	// matches (MeanS/StdS, MeanF/StdF) regardless of Persist.
	Persist float64
	// LoS/HiS and LoF/HiF clamp the samples.
	LoS, HiS float64
	LoF, HiF float64
}

// Sample draws one specification from the stationary marginal
// (equivalent to a stream draw with no history).
func (q *QoSModel) Sample(r *rng.Source) QoSSpec {
	s, f := r.BivariateNormal(q.MeanS, q.MeanF, q.StdS, q.StdF, q.Rho)
	return q.clamp(s, f)
}

func (q *QoSModel) clamp(s, f float64) QoSSpec {
	return QoSSpec{
		SMaxMs: math.Min(q.HiS, math.Max(q.LoS, s)),
		FMin:   math.Min(q.HiF, math.Max(q.LoF, f)),
	}
}

// SpecStream generates the autocorrelated specification process.
type SpecStream struct {
	q       *QoSModel
	s, f    float64
	started bool
}

// Stream returns a fresh specification process for one simulation run.
func (q *QoSModel) Stream() *SpecStream { return &SpecStream{q: q} }

// Next draws the next specification of the process.
func (st *SpecStream) Next(r *rng.Source) QoSSpec {
	q := st.q
	if !st.started || q.Persist == 0 {
		st.s, st.f = r.BivariateNormal(q.MeanS, q.MeanF, q.StdS, q.StdF, q.Rho)
		st.started = true
		return q.clamp(st.s, st.f)
	}
	// AR(1): x' = mean + phi*(x - mean) + sqrt(1-phi^2)*innovation,
	// which preserves the stationary variance.
	phi := q.Persist
	scale := math.Sqrt(1 - phi*phi)
	ds, df := r.BivariateNormal(0, 0, q.StdS, q.StdF, q.Rho)
	st.s = q.MeanS + phi*(st.s-q.MeanS) + scale*ds
	st.f = q.MeanF + phi*(st.f-q.MeanF) + scale*df
	return q.clamp(st.s, st.f)
}

// ModelFromDatabase derives a QoS model whose envelope is spanned by
// the database's design points, so that (almost) every sampled
// specification is satisfiable by at least one stored point. The
// spread covers the database's metric ranges; the mild negative
// correlation reflects alternating performance/reliability pressure.
func ModelFromDatabase(db *dse.Database) QoSModel {
	minS, maxS := math.Inf(1), math.Inf(-1)
	minF, maxF := math.Inf(1), math.Inf(-1)
	for _, p := range db.Points {
		minS = math.Min(minS, p.MakespanMs)
		maxS = math.Max(maxS, p.MakespanMs)
		minF = math.Min(minF, p.Reliability)
		maxF = math.Max(maxF, p.Reliability)
	}
	// Degenerate single-point databases still need a usable envelope.
	if maxS == minS {
		maxS = minS * 1.1
	}
	if maxF == minF {
		minF = maxF - 0.01
	}
	return QoSModel{
		MeanS:   (minS + maxS) / 2,
		StdS:    (maxS - minS) / 4,
		MeanF:   (minF + maxF) / 2,
		StdF:    (maxF - minF) / 4,
		Rho:     -0.3,
		Persist: 0.6,
		LoS:     minS, HiS: maxS * 1.05,
		LoF: math.Max(0, minF*0.98), HiF: maxF,
	}
}

// Trigger selects when the manager searches for a new configuration.
type Trigger int

const (
	// TriggerAlways re-evaluates the stored points on every QoS event,
	// as the purely Pareto-oriented baseline does (it hunts the best
	// hyper-volume point for every change — the cause of the
	// continuous adaptations in region A of Figure 6).
	TriggerAlways Trigger = iota
	// TriggerOnViolation searches only when the current configuration
	// violates the new specification — the reconfiguration-cost-aware
	// behaviour.
	TriggerOnViolation
)

func (tr Trigger) String() string {
	switch tr {
	case TriggerAlways:
		return "always"
	case TriggerOnViolation:
		return "on-violation"
	default:
		return fmt.Sprintf("Trigger(%d)", int(tr))
	}
}

// Policy selects how the manager scores feasible candidates.
type Policy int

const (
	// PolicyRET is Algorithm 1's weighted score
	// pRC*norm(R) - (1-pRC)*norm(dRC) (uRA / AuRA).
	PolicyRET Policy = iota
	// PolicyHypervolume is the purely performance-oriented baseline
	// of the paper's Section 5.2: on every event it moves to the
	// feasible point with the best hyper-volume fitness against the
	// new specification's reference point (Figure 4a), ignoring
	// reconfiguration cost entirely. Because the winner shifts with
	// every specification, this policy reconfigures almost every
	// event — the region-A behaviour of Figure 6.
	PolicyHypervolume
)

func (p Policy) String() string {
	switch p {
	case PolicyRET:
		return "ret"
	case PolicyHypervolume:
		return "hypervolume"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Params configures one run-time simulation.
type Params struct {
	// DB is the stored design-point database.
	DB *dse.Database
	// Space prices reconfigurations between stored points.
	Space *mapping.Space
	// Matrix, when non-nil, supplies the precomputed pairwise dRC
	// table for DB (mapping.NewDRCMatrix over DB.Mappings()). It must
	// cover exactly DB's points. Nil computes the table at simulation
	// start; sharing one matrix across runs (or across a fleet of
	// managers on the same database) amortises that precomputation.
	Matrix *mapping.DRCMatrix
	// QoS generates specifications; zero value selects
	// ModelFromDatabase(DB).
	QoS QoSModel
	// PRC is the user modulation parameter pRC in [0,1].
	PRC float64
	// MeanInterArrivalCycles is the mean time between discrete events
	// in application execution cycles (0 selects the paper's 100).
	MeanInterArrivalCycles float64
	// Cycles is the total simulated application execution cycles
	// (0 selects 1e6, the paper's horizon).
	Cycles float64
	// Trigger selects the adaptation trigger policy.
	Trigger Trigger
	// Policy selects the candidate-scoring rule (default PolicyRET).
	Policy Policy
	// Replay, when non-empty, supplies the specification sequence
	// verbatim instead of sampling the QoS model: entry k drives event
	// k (cycling if the simulation outlives the list). Use
	// ReadSpecsCSV to load recorded traces.
	Replay []QoSSpec
	// Agent, when non-nil, upgrades uRA to AuRA using the agent's
	// value functions.
	Agent *Agent
	// Seed drives the event process.
	Seed int64
	// TraceLen bounds how many per-event trace entries are recorded
	// (0 = none).
	TraceLen int
}

func (p *Params) withDefaults() Params {
	q := *p
	if q.MeanInterArrivalCycles == 0 {
		q.MeanInterArrivalCycles = 100
	}
	if q.Cycles == 0 {
		q.Cycles = 1e6
	}
	if (q.QoS == QoSModel{}) {
		q.QoS = ModelFromDatabase(q.DB)
	}
	return q
}

func (p *Params) validate() error {
	if err := checkIndexInputs(p.DB, p.Space, p.Matrix); err != nil {
		return err
	}
	switch {
	case p.PRC < 0 || p.PRC > 1:
		return fmt.Errorf("runtime: pRC must be in [0,1], got %v", p.PRC)
	case p.MeanInterArrivalCycles < 0:
		return fmt.Errorf("runtime: MeanInterArrivalCycles must be positive")
	case p.Cycles < 0:
		return fmt.Errorf("runtime: Cycles must be positive")
	}
	return nil
}

// TraceEntry records one discrete event for Figure 6-style plots.
type TraceEntry struct {
	// Event is the event's ordinal (0-based).
	Event int
	// CycleTime is the simulation time of the event in cycles.
	CycleTime float64
	// Spec is the new QoS specification.
	Spec QoSSpec
	// Point is the configuration in force after the event.
	Point int
	// DRC is the reconfiguration cost paid at this event (0 when the
	// system stays put).
	DRC float64
	// Reconfigured reports whether the configuration changed.
	Reconfigured bool
	// Violated reports whether no stored point satisfied the spec.
	Violated bool
}

// Metrics summarises one simulation run.
type Metrics struct {
	// Events is the number of discrete QoS events processed.
	Events int
	// Reconfigs counts events at which the configuration changed.
	Reconfigs int
	// TotalDRC is the accumulated reconfiguration cost (ms).
	TotalDRC float64
	// MaxDRC is the largest single reconfiguration cost.
	MaxDRC float64
	// AvgDRC is TotalDRC / Events — the paper's "average
	// reconfiguration cost".
	AvgDRC float64
	// AvgEnergyMJ is the cycle-weighted average energy per application
	// execution (J_avg of Figure 1).
	AvgEnergyMJ float64
	// TotalMigrations counts migrated task binaries.
	TotalMigrations int
	// ViolationEvents counts events whose specification no stored
	// point satisfied.
	ViolationEvents int
	// FeasibilityChecks counts stored-point inspections performed by
	// the run-time DSE across all events — the decision-latency
	// proxy behind the paper's concern that large databases lead to
	// "longer run-time DSE" (and the motivation for Prune).
	FeasibilityChecks int
	// Trace holds the first TraceLen events.
	Trace []TraceEntry
}

// Simulate runs the discrete-event Monte-Carlo simulation and returns
// its metrics.
func Simulate(p Params) (*Metrics, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	r := rng.New(p.Seed)
	eventRNG := r.Split(1)
	specRNG := r.Split(2)

	ix, err := NewIndex(p.DB, p.Space, p.Matrix)
	if err != nil {
		return nil, err
	}
	sim := decider{ix: ix, prc: p.PRC, trigger: p.Trigger, policy: p.Policy, agent: p.Agent}
	met := &Metrics{}
	if p.Agent != nil {
		p.Agent.resetClock()
	}

	// Initial specification and configuration: best performance among
	// feasible points, ignoring reconfiguration cost (the system boots
	// into it; nothing to migrate from).
	stream := p.QoS.Stream()
	replayIdx := 0
	nextSpec := func() QoSSpec {
		if len(p.Replay) > 0 {
			sp := p.Replay[replayIdx%len(p.Replay)]
			replayIdx++
			return sp
		}
		return stream.Next(specRNG)
	}
	spec := nextSpec()
	cur, bootViolated := ix.cheapestFeasible(spec)
	met.FeasibilityChecks = cheapestInspections(ix.Len(), bootViolated)

	t := 0.0
	energyCycles := 0.0
	for {
		dt := eventRNG.Exponential(p.MeanInterArrivalCycles)
		if t+dt >= p.Cycles {
			energyCycles += (p.Cycles - t) * p.DB.Points[cur].EnergyMJ
			break
		}
		t += dt
		energyCycles += dt * p.DB.Points[cur].EnergyMJ

		spec = nextSpec()
		next, violated, detail := sim.decide(cur, spec, nil)
		met.FeasibilityChecks += inspections(ix.Len(), detail)

		entry := TraceEntry{
			Event:     met.Events,
			CycleTime: t,
			Spec:      spec,
			Point:     next,
			Violated:  violated,
		}
		drc := 0.0
		if next != cur {
			drc = ix.mat.Total(cur, next)
			met.Reconfigs++
			met.TotalDRC += drc
			met.TotalMigrations += mapping.MigratedTasks(ix.maps[cur], ix.maps[next])
			if drc > met.MaxDRC {
				met.MaxDRC = drc
			}
			entry.DRC = drc
			entry.Reconfigured = true
			cur = next
		}
		if p.Agent != nil {
			p.Agent.step(cur, -p.DB.Points[cur].EnergyMJ, drc, t)
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
	return met, nil
}
