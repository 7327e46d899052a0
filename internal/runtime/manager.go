package runtime

// Manager is the deployable form of the run-time stage: where Simulate
// drives a Monte-Carlo model of the environment, a Manager is embedded
// in the actual system and *reacts* — the control software calls
// OnQoSChange whenever the operating requirements move, and receives
// the decision together with the imperative reconfiguration plan
// (which binaries to copy, which bitstreams to load). The decision
// logic is byte-for-byte the simulator's: trigger policy, uRA/AuRA
// scoring (with the same pRC semantics), hyper-volume baseline,
// least-violation fallback.

import (
	"fmt"
	"sync"

	"clrdse/internal/dse"
	"clrdse/internal/mapping"
)

// Decision is the manager's reaction to one QoS change.
type Decision struct {
	// From and To are stored design-point IDs; equal when the system
	// stays put.
	From, To int
	// Reconfigured reports whether a transition happens.
	Reconfigured bool
	// Cost is the transition's dRC decomposition (zero when staying).
	Cost mapping.ReconfigCost
	// Plan is the imperative action list realising the transition
	// (empty when staying put).
	Plan []mapping.Action
	// Violated reports that no stored point satisfies the new
	// specification and To is the least-violating fallback.
	Violated bool
}

// Manager tracks the current configuration and decides transitions.
//
// A Manager is safe for concurrent use: OnQoSChange, Current and
// CurrentPoint may be called from multiple goroutines. Decisions are
// serialised internally, so concurrent OnQoSChange calls execute one
// at a time in some order; each decision observes the state left by
// the previous one, exactly as if the same interleaving had been
// replayed through a single control loop. Callers that need a fixed
// decision order (e.g. replaying a recorded trace) must still provide
// events from one goroutine. The optional Agent is stepped under the
// same lock and must not be shared between managers.
//
// A manager holds only what the decide path reads — the shared Index,
// pRC, trigger, policy, agent and episode clock — so a uRA manager's
// state is O(1) in the database size.
type Manager struct {
	mu sync.Mutex
	d  decider
	// interArrival is the agent's episode-clock increment per event.
	interArrival float64
	cur          int
	// events counts OnQoSChange calls (feeds the agent's episode
	// clock when no cycle timestamps are supplied).
	events int
}

// ManagerParams configures a Manager. The QoS model and Cycles fields
// of Params are unused (the environment is real, not simulated).
type ManagerParams struct {
	// Index, when non-nil, is the shared decide index of the database
	// version the manager serves (see NewIndex). Every manager on one
	// version should share one index; DB, Space and Matrix may then be
	// left nil, and must be the index's own when set. Nil builds a
	// private index from DB, Space and Matrix.
	Index *Index
	// DB is the stored design-point database.
	DB *dse.Database
	// Space prices reconfigurations.
	Space *mapping.Space
	// Matrix, when non-nil, is the precomputed pairwise dRC table for
	// DB. A fleet of managers on the same database should share one
	// matrix (see mapping.NewDRCMatrix); nil builds a private one, which
	// costs |DB|^2 dRC computations per manager.
	Matrix *mapping.DRCMatrix
	// PRC is the user modulation parameter pRC in [0,1].
	PRC float64
	// Trigger selects when to re-optimise.
	Trigger Trigger
	// Policy selects the scoring rule.
	Policy Policy
	// Agent optionally upgrades uRA to AuRA; it keeps learning online
	// from the decisions the manager takes.
	Agent *Agent
	// MeanInterArrivalCycles calibrates the agent's episode clock when
	// the caller does not track cycle time (0 selects 100).
	MeanInterArrivalCycles float64
}

// NewManager boots a manager into the best feasible point for the
// initial specification (or the least-violating point).
func NewManager(p ManagerParams, initial QoSSpec) (*Manager, error) {
	ix := p.Index
	if ix == nil {
		var err error
		if ix, err = NewIndex(p.DB, p.Space, p.Matrix); err != nil {
			return nil, err
		}
	} else if (p.DB != nil && p.DB != ix.db) || (p.Space != nil && p.Space != ix.space) || (p.Matrix != nil && p.Matrix != ix.mat) {
		return nil, fmt.Errorf("runtime: ManagerParams DB, Space or Matrix differ from the shared Index's")
	}
	switch {
	case p.PRC < 0 || p.PRC > 1:
		return nil, fmt.Errorf("runtime: pRC must be in [0,1], got %v", p.PRC)
	case p.MeanInterArrivalCycles < 0:
		return nil, fmt.Errorf("runtime: MeanInterArrivalCycles must be positive")
	}
	m := &Manager{
		d:            decider{ix: ix, prc: p.PRC, trigger: p.Trigger, policy: p.Policy, agent: p.Agent},
		interArrival: p.MeanInterArrivalCycles,
	}
	if m.interArrival == 0 {
		m.interArrival = 100
	}
	m.cur, _ = ix.cheapestFeasible(initial)
	return m, nil
}

// Index returns the decide index the manager decides against.
func (m *Manager) Index() *Index { return m.d.ix }

// Current returns the stored design-point ID in force.
func (m *Manager) Current() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur
}

// CurrentPoint returns the stored design point in force.
func (m *Manager) CurrentPoint() *dse.DesignPoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.d.ix.db.Points[m.cur]
}

// OnQoSChange reacts to a new specification and returns the decision
// with its reconfiguration plan. The manager's state advances to the
// chosen point.
func (m *Manager) OnQoSChange(spec QoSSpec) Decision {
	d, _ := m.OnQoSChangeObserved(spec, nil)
	return d
}

// OnQoSChangeObserved is OnQoSChange with observability: rec (when
// non-nil) receives one span per decide stage — filter, score, switch,
// agent_update — and the returned detail explains the choice
// (candidate counts, selection score). The decision is byte-identical
// to OnQoSChange's for the same state and spec; observation never
// influences the choice.
func (m *Manager) OnQoSChangeObserved(spec QoSSpec, rec StageRecorder) (Decision, DecisionDetail) {
	d, detail := m.Decide(spec, rec)
	if d.Reconfigured {
		d.Plan = m.d.ix.Plan(d.From, d.To)
	}
	return d, detail
}

// Decide is OnQoSChangeObserved without the plan: the same choice,
// cost decomposition, agent update, event clock and spans, with
// Decision.Plan left nil. The switch stage prices the transition only.
// The plan is a pure function of the decide index and the two points,
// so a caller that needs it later — a server encoding its answer —
// writes it with Index().AppendPlan(dst, d.From, d.To), or Plan.
func (m *Manager) Decide(spec QoSSpec, rec StageRecorder) (Decision, DecisionDetail) {
	m.mu.Lock()
	defer m.mu.Unlock()
	next, violated, detail := m.d.decide(m.cur, spec, rec)
	d := Decision{From: m.cur, To: next, Violated: violated}
	if next != m.cur {
		d.Reconfigured = true
		endSwitch := startStage(rec, StageSwitch)
		d.Cost = m.d.ix.res.Cost(m.cur, next)
		endSwitch()
	}
	m.advance(next, d.Cost.Total(), rec)
	return d, detail
}

// Advance reacts to a new specification exactly as OnQoSChange does —
// the same choice, agent update and event clock — but returns only the
// chosen point: it builds neither the plan nor the cost decomposition,
// and an agent learns the transition's dRC from the matrix. Shadow
// scoring, which compares choices and discards everything else,
// decides through it.
func (m *Manager) Advance(spec QoSSpec) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	next, _, _ := m.d.decide(m.cur, spec, nil)
	drc := 0.0
	if next != m.cur && m.d.agent != nil {
		// The matrix total is the decomposition's total bit for bit,
		// which OnQoSChange teaches; a uRA manager needs no cost at all.
		drc = m.d.ix.mat.Total(m.cur, next)
	}
	m.advance(next, drc, nil)
	return next
}

// advance commits a decision: the event clock ticks, the agent (when
// present) learns the step, and the configuration moves to next. The
// caller holds m.mu.
func (m *Manager) advance(next int, drc float64, rec StageRecorder) {
	m.events++
	if ag := m.d.agent; ag != nil {
		// Approximate the episode clock by the expected inter-arrival
		// time; callers with real timestamps can manage the agent
		// themselves via Agent.Pretrain / step sequences.
		endAgent := startStage(rec, StageAgent)
		t := float64(m.events) * m.interArrival
		ag.step(next, -m.d.ix.db.Points[next].EnergyMJ, drc, t)
		endAgent()
	}
	m.cur = next
}

// Events returns how many QoS changes the manager has processed
// (decisions and replayed journal entries both advance it). It feeds
// the AuRA agent's episode clock, so a restored manager must carry it
// over — see Restore.
func (m *Manager) Events() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.events
}

// Replay re-applies one recorded decision without re-deciding: the
// configuration moves to the stored point `to`, the event clock
// advances, and the AuRA agent (when present) re-learns the recorded
// reward — the point's stored energy and the decision's recorded dRC —
// exactly as the original decision did. Replaying a device's full
// journal through a freshly booted manager therefore reconstructs the
// original manager state byte for byte, which is what lets a cluster
// node take over a migrated device and keep deciding identically.
func (m *Manager) Replay(to int, drcTotal float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := m.d.ix.Len(); to < 0 || to >= n {
		return fmt.Errorf("runtime: replay target point %d outside database [0,%d)", to, n)
	}
	m.advance(to, drcTotal, nil)
	return nil
}

// Restore forces the manager to a known (point, event-count) state.
// It is the snapshot-based fallback for handoff when a device's
// journal is incomplete (the ring overwrote its oldest entries): the
// configuration and episode clock are exact, while an AuRA agent keeps
// whatever the partial replay taught it. Callers with a complete
// journal should prefer Replay, which restores everything.
func (m *Manager) Restore(cur, events int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := m.d.ix.Len(); cur < 0 || cur >= n {
		return fmt.Errorf("runtime: restore point %d outside database [0,%d)", cur, n)
	}
	if events < 0 {
		return fmt.Errorf("runtime: restore event count %d is negative", events)
	}
	m.cur = cur
	m.events = events
	return nil
}

// Describe renders a decision for logs.
func (d Decision) Describe() string {
	if !d.Reconfigured {
		status := "stay"
		if d.Violated {
			status = "stay (spec unsatisfiable)"
		}
		return fmt.Sprintf("%s at point %d", status, d.To)
	}
	return fmt.Sprintf("reconfigure %d -> %d: dRC=%.3f ms, %d actions",
		d.From, d.To, d.Cost.Total(), len(d.Plan))
}
