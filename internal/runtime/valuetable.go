package runtime

// Cohort value tables: the shared-learning counterpart of the per-
// device AuRA agent. A ValueTable is a versioned snapshot of the
// per-state value functions (VR, VD) aggregated across a cohort of
// devices that serve the same database under the same observed QoS
// regime. Tables are published on a deterministic epoch schedule (see
// internal/cohort) and injected into agents as prior knowledge, so a
// cold-start device inherits its cohort's learned values instead of
// running offline Monte-Carlo from scratch.
//
// Tables are versioned exactly like fleet.NamedDatabase: the version
// number orders publishes within one cohort, and the content
// fingerprint disambiguates two tables that independently evolved to
// the same number on different nodes. Decisions journal the version of
// the table their agent was last seeded from, so any decision stream
// can be attributed to the value knowledge that produced it and a
// one-step rollback is observable in the flight record.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// ValueTable is a cohort-level snapshot of learned value functions
// over one database version's design points.
type ValueTable struct {
	// Version orders publishes within a cohort; a publish must advance
	// it, a rollback re-installs the displaced (lower) version.
	Version uint64 `json:"version"`
	// Epoch is the deterministic epoch index that produced the table
	// (see cohort.Schedule).
	Epoch uint64 `json:"epoch"`
	// Gamma is the discount factor the values were learned under; a
	// table only seeds agents with the same gamma (the values' meaning
	// depends on it).
	Gamma float64 `json:"gamma"`
	// DBVersion and DBFingerprint pin the database version the state
	// indices refer to: point IDs are only meaningful within one
	// database version, so a table never crosses a database swap.
	DBVersion     uint64 `json:"db_version"`
	DBFingerprint uint64 `json:"db_fingerprint"`
	// QoSFingerprint is the quantised fingerprint of the observed
	// QoS-event distribution the table was aggregated from (the second
	// half of the cohort key; see cohort.Key).
	QoSFingerprint uint64 `json:"qos_fingerprint"`
	// Devices and Events count what was folded in: how many devices
	// contributed episodic returns, over how many journaled decisions.
	Devices int `json:"devices"`
	Events  int `json:"events"`
	// VR and VD are the aggregated per-state value functions
	// (performance and reconfiguration cost), indexed by design-point
	// ID; Visits carries the pooled visit counts so an agent seeded
	// from the table keeps learning at the cohort's effective rate.
	VR     []float64 `json:"vr"`
	VD     []float64 `json:"vd"`
	Visits []int     `json:"visits"`
}

// Len returns the number of states the table covers.
func (t *ValueTable) Len() int { return len(t.VR) }

// Validate checks the table's internal consistency.
func (t *ValueTable) Validate() error {
	if len(t.VR) == 0 {
		return fmt.Errorf("runtime: value table has no states")
	}
	if len(t.VD) != len(t.VR) || len(t.Visits) != len(t.VR) {
		return fmt.Errorf("runtime: value table slices disagree: %d VR, %d VD, %d visits",
			len(t.VR), len(t.VD), len(t.Visits))
	}
	if t.Gamma < 0 || t.Gamma >= 1 {
		return fmt.Errorf("runtime: value table gamma %v outside [0,1)", t.Gamma)
	}
	for i, v := range t.Visits {
		if v < 0 {
			return fmt.Errorf("runtime: value table visits[%d] = %d is negative", i, v)
		}
	}
	return nil
}

// Fingerprint is the table's content hash: FNV-1a over gamma, the
// database binding, and every state's values and visit count, in state
// order. The version number is deliberately excluded — it is compared
// separately, exactly like fleet.NamedDatabase.Fingerprint, so two
// nodes can detect tables that independently evolved to the same
// version number with different content.
func (t *ValueTable) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(math.Float64bits(t.Gamma))
	word(t.DBVersion)
	word(t.DBFingerprint)
	word(t.QoSFingerprint)
	for i := range t.VR {
		word(math.Float64bits(t.VR[i]))
		word(math.Float64bits(t.VD[i]))
		word(uint64(t.Visits[i]))
	}
	return h.Sum64()
}

// ApplyPrior seeds the agent's value functions from a cohort table:
// VR, VD and the visit counts are replaced wholesale (the table was
// aggregated from the cohort's journaled returns, this device's
// included, so blending would double-count). Buffered steps of an open
// episode are untouched and keep updating on top of the injected
// values. It fails if the table does not fit the agent's state space
// or was learned under a different gamma.
func (a *Agent) ApplyPrior(t *ValueTable) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if t.Len() != len(a.VR) {
		return fmt.Errorf("runtime: value table covers %d states, agent has %d", t.Len(), len(a.VR))
	}
	if t.Gamma != a.Gamma {
		return fmt.Errorf("runtime: value table gamma %v, agent gamma %v", t.Gamma, a.Gamma)
	}
	copy(a.VR, t.VR)
	copy(a.VD, t.VD)
	copy(a.visits, t.Visits)
	return nil
}

// Snapshot exports the agent's learned state as an unversioned value
// table (the caller stamps version, epoch and cohort bindings). The
// slices are copies; mutating the result never touches the agent.
func (a *Agent) Snapshot() *ValueTable {
	return &ValueTable{
		Gamma:  a.Gamma,
		VR:     append([]float64(nil), a.VR...),
		VD:     append([]float64(nil), a.VD...),
		Visits: append([]int(nil), a.visits...),
	}
}

// Observe records one discrete event into the agent's episode buffer:
// the state in force after the event, its immediate performance reward
// rR, the reconfiguration cost rD paid entering it, and the cycle
// time. It is the exported form of the step the Manager takes per
// decision, for callers that replay journaled decisions into a
// detached agent (the cohort aggregator).
func (a *Agent) Observe(state int, rR, rD, cycleTime float64) error {
	if state < 0 || state >= len(a.VR) {
		return fmt.Errorf("runtime: observe state %d outside [0,%d)", state, len(a.VR))
	}
	a.step(state, rR, rD, cycleTime)
	return nil
}

// Flush closes the trailing partial episode, applying its Monte-Carlo
// updates. Call it after the last Observe of a replay.
func (a *Agent) Flush() { a.flush() }

// ApplyValuePrior seeds the manager's AuRA agent from a cohort value
// table (see Agent.ApplyPrior). It reports whether a prior was
// applied: false with a nil error means the manager runs uRA (no
// agent) or the table's gamma does not match — both expected states
// for mixed fleets, not faults. The swap happens under the manager
// lock, between decisions.
func (m *Manager) ApplyValuePrior(t *ValueTable) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ag := m.d.agent
	if ag == nil || ag.Gamma != t.Gamma {
		return false, nil
	}
	if err := ag.ApplyPrior(t); err != nil {
		return false, err
	}
	return true, nil
}
