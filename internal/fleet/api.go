package fleet

// JSON wire types of the decision service's v1 API, and their
// conversions to and from the internal runtime/mapping types. The
// wire shape is deliberately flat and snake_cased so non-Go device
// firmware can consume it without a schema compiler.

import (
	"fmt"
	"math"
	"time"

	"clrdse/internal/mapping"
	"clrdse/internal/obs"
	"clrdse/internal/runtime"
)

// QoSSpecJSON is one (S_SPEC, F_SPEC) requirement on the wire.
type QoSSpecJSON struct {
	SMaxMs float64 `json:"s_max_ms"`
	FMin   float64 `json:"f_min"`
}

// Spec converts to the internal type.
func (q QoSSpecJSON) Spec() runtime.QoSSpec {
	return runtime.QoSSpec{SMaxMs: q.SMaxMs, FMin: q.FMin}
}

// validate accepts a positive, finite S_SPEC and an F_SPEC in [0,1].
// The negated comparisons reject NaN, which no JSON body can carry but
// a CLRB event can.
func (q QoSSpecJSON) validate() error {
	if !(q.SMaxMs > 0) || math.IsInf(q.SMaxMs, 1) {
		return fmt.Errorf("s_max_ms must be positive and finite, got %v", q.SMaxMs)
	}
	if !(q.FMin >= 0 && q.FMin <= 1) {
		return fmt.Errorf("f_min must be in [0,1], got %v", q.FMin)
	}
	return nil
}

// QoSRequest is the body of POST /v1/devices/{id}/qos. Seq, when
// positive, is the device's monotonically increasing event sequence
// number: retries of a failed event reuse its Seq, and the server
// answers already-decided sequences from its per-device decision
// cache instead of re-deciding — at-least-once delivery, exactly-once
// decisions. Seq 0 (or absent) preserves the v1 fire-and-forget
// semantics.
type QoSRequest struct {
	QoSSpecJSON
	Seq uint64 `json:"seq,omitempty"`
}

// RegisterRequest is the body of POST /v1/devices.
type RegisterRequest struct {
	ID       string `json:"id"`
	Database string `json:"database"`
	// PRC is the pRC knob in [0,1].
	PRC float64 `json:"prc"`
	// Trigger is "always" (default) or "on-violation".
	Trigger string `json:"trigger,omitempty"`
	// Policy is "ret" (default) or "hypervolume".
	Policy string `json:"policy,omitempty"`
	// Gamma > 0 upgrades uRA to AuRA.
	Gamma float64 `json:"gamma,omitempty"`
	// MeanInterArrivalCycles calibrates the AuRA episode clock.
	MeanInterArrivalCycles float64     `json:"mean_interarrival_cycles,omitempty"`
	Initial                QoSSpecJSON `json:"initial"`
}

// Params converts the request to registry parameters.
func (r RegisterRequest) Params() (DeviceParams, error) {
	if err := r.Initial.validate(); err != nil {
		return DeviceParams{}, fmt.Errorf("initial: %w", err)
	}
	trig, err := ParseTrigger(r.Trigger)
	if err != nil {
		return DeviceParams{}, err
	}
	pol, err := ParsePolicy(r.Policy)
	if err != nil {
		return DeviceParams{}, err
	}
	return DeviceParams{
		ID:                     r.ID,
		Database:               r.Database,
		PRC:                    r.PRC,
		Trigger:                trig,
		Policy:                 pol,
		Gamma:                  r.Gamma,
		MeanInterArrivalCycles: r.MeanInterArrivalCycles,
		Initial:                r.Initial.Spec(),
	}, nil
}

// ParseTrigger maps the wire spelling to the runtime constant; the
// empty string selects TriggerAlways.
func ParseTrigger(s string) (runtime.Trigger, error) {
	switch s {
	case "", "always":
		return runtime.TriggerAlways, nil
	case "on-violation":
		return runtime.TriggerOnViolation, nil
	default:
		return 0, fmt.Errorf("unknown trigger %q (want \"always\" or \"on-violation\")", s)
	}
}

// ParsePolicy maps the wire spelling to the runtime constant; the
// empty string selects PolicyRET.
func ParsePolicy(s string) (runtime.Policy, error) {
	switch s {
	case "", "ret":
		return runtime.PolicyRET, nil
	case "hypervolume":
		return runtime.PolicyHypervolume, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (want \"ret\" or \"hypervolume\")", s)
	}
}

// ActionJSON is one imperative reconfiguration step on the wire.
type ActionJSON struct {
	// Kind is "copy-binary", "load-bitstream", "set-clr" or "reorder".
	Kind      string  `json:"kind"`
	Task      int     `json:"task"`
	PE        int     `json:"pe"`
	PRR       int     `json:"prr"`
	Bitstream int     `json:"bitstream"`
	CostMs    float64 `json:"cost_ms"`
}

func actionJSON(a mapping.Action) ActionJSON {
	return ActionJSON{
		Kind:      a.Kind.String(),
		Task:      a.Task,
		PE:        a.PE,
		PRR:       a.PRR,
		Bitstream: a.Bitstream,
		CostMs:    a.CostMs,
	}
}

// DecisionJSON is the body returned by POST /v1/devices/{id}/qos: the
// decision together with the imperative reconfiguration plan, exactly
// what runtime.Manager.OnQoSChange returns.
type DecisionJSON struct {
	Device string `json:"device"`
	// Seq echoes the request's sequence number; replayed decisions
	// are byte-identical to the original answer.
	Seq          uint64 `json:"seq,omitempty"`
	From         int    `json:"from"`
	To           int    `json:"to"`
	Reconfigured bool   `json:"reconfigured"`
	Violated     bool   `json:"violated"`
	// Degraded reports the decision path faulted or missed its
	// deadline and the device stayed at its last known-good
	// configuration (From == To, zero cost, no plan).
	Degraded bool `json:"degraded,omitempty"`
	// CostMs is the scalar dRC of the transition.
	CostMs float64 `json:"cost_ms"`
	// BinaryMigrationMs/BitstreamMs decompose CostMs; MigratedTasks
	// and ReloadedPRRs count the moved artefacts.
	BinaryMigrationMs float64      `json:"binary_migration_ms"`
	BitstreamMs       float64      `json:"bitstream_ms"`
	MigratedTasks     int          `json:"migrated_tasks"`
	ReloadedPRRs      int          `json:"reloaded_prrs"`
	Plan              []ActionJSON `json:"plan,omitempty"`
}

// decisionJSON flattens a runtime decision for the wire.
func decisionJSON(id string, d runtime.Decision) DecisionJSON {
	out := DecisionJSON{
		Device:            id,
		From:              d.From,
		To:                d.To,
		Reconfigured:      d.Reconfigured,
		Violated:          d.Violated,
		CostMs:            d.Cost.Total(),
		BinaryMigrationMs: d.Cost.BinaryMigrationMs,
		BitstreamMs:       d.Cost.BitstreamMs,
		MigratedTasks:     d.Cost.MigratedTasks,
		ReloadedPRRs:      d.Cost.ReloadedPRRs,
	}
	for _, a := range d.Plan {
		out.Plan = append(out.Plan, actionJSON(a))
	}
	return out
}

// DeviceJSON is the body returned by device registration and GET
// /v1/devices/{id}.
type DeviceJSON struct {
	ID       string `json:"id"`
	Database string `json:"database"`
	// Point is the stored design-point ID in force, with its metrics.
	Point       int     `json:"point"`
	MakespanMs  float64 `json:"makespan_ms"`
	Reliability float64 `json:"reliability"`
	EnergyMJ    float64 `json:"energy_mj"`
	// Cumulative decision history.
	Decisions    int64     `json:"decisions"`
	Reconfigs    int64     `json:"reconfigs"`
	Violations   int64     `json:"violations"`
	TotalDRCMs   float64   `json:"total_drc_ms"`
	Migrations   int64     `json:"migrations"`
	RegisteredAt time.Time `json:"registered_at"`
}

func deviceJSON(info *DeviceInfo) DeviceJSON {
	return DeviceJSON{
		ID:           info.ID,
		Database:     info.Database,
		Point:        info.Point,
		MakespanMs:   info.MakespanMs,
		Reliability:  info.Reliability,
		EnergyMJ:     info.EnergyMJ,
		Decisions:    info.Stats.Decisions,
		Reconfigs:    info.Stats.Reconfigs,
		Violations:   info.Stats.Violations,
		TotalDRCMs:   info.Stats.TotalDRCMs,
		Migrations:   info.Stats.Migrations,
		RegisteredAt: info.RegisteredAt,
	}
}

// DatabaseJSON describes one registered database in GET /v1/databases,
// including the QoS envelope spanned by its stored points (the region
// registrants should draw satisfiable specifications from).
type DatabaseJSON struct {
	Name string `json:"name"`
	// Version is the database's evolution generation (0 = the
	// design-time original; bumped by each Continuous-ReD cutover).
	Version        uint64  `json:"version"`
	Points         int     `json:"points"`
	MinMakespanMs  float64 `json:"min_makespan_ms"`
	MaxMakespanMs  float64 `json:"max_makespan_ms"`
	MinReliability float64 `json:"min_reliability"`
	MaxReliability float64 `json:"max_reliability"`
}

func databaseJSON(n NamedDatabase) DatabaseJSON {
	minS, maxS, minF, maxF := n.Envelope()
	return DatabaseJSON{
		Name:           n.Name,
		Version:        n.DB.Version,
		Points:         n.DB.Len(),
		MinMakespanMs:  minS,
		MaxMakespanMs:  maxS,
		MinReliability: minF,
		MaxReliability: maxF,
	}
}

// BatchEventJSON is one QoS event inside POST /v1/devices:decide-batch
// — the single-event QoSRequest plus the device it addresses. Events
// for one device decide in batch order; Seq semantics are identical to
// the single-event path.
type BatchEventJSON struct {
	Device string `json:"device"`
	Seq    uint64 `json:"seq,omitempty"`
	QoSSpecJSON
}

// BatchRequestJSON is the body of POST /v1/devices:decide-batch.
type BatchRequestJSON struct {
	Events []BatchEventJSON `json:"events"`
}

// BatchResultJSON is one event's outcome inside a batch response.
// Exactly one of Decision/Error is set; Status is the HTTP status the
// same event would have earned on the single-event path (200 carries a
// decision — possibly replayed or degraded — anything else an error).
// A failed event never poisons its neighbours.
type BatchResultJSON struct {
	Status   int           `json:"status"`
	Decision *DecisionJSON `json:"decision,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// BatchResponseJSON is the body answered by the batch endpoint:
// Results[i] is Events[i]'s outcome, index-aligned.
type BatchResponseJSON struct {
	Results []BatchResultJSON `json:"results"`
}

// decisionJSONInto is decisionJSON writing into pooled scratch, with
// the decision's plan given apart (see DecideOutcome.plan): every field
// of dj is overwritten (no stale-field leaks) and dj.Plan's backing
// array is reused. The serialised bytes stay identical to the
// fresh-allocation path — `plan,omitempty` omits empty and nil slices
// alike, so plan-less decisions never expose the reused capacity.
func decisionJSONInto(dj *DecisionJSON, id string, d runtime.Decision, plan []mapping.Action) {
	jplan := dj.Plan[:0]
	for _, a := range plan {
		jplan = append(jplan, actionJSON(a))
	}
	*dj = DecisionJSON{
		Device:            id,
		From:              d.From,
		To:                d.To,
		Reconfigured:      d.Reconfigured,
		Violated:          d.Violated,
		CostMs:            d.Cost.Total(),
		BinaryMigrationMs: d.Cost.BinaryMigrationMs,
		BitstreamMs:       d.Cost.BitstreamMs,
		MigratedTasks:     d.Cost.MigratedTasks,
		ReloadedPRRs:      d.Cost.ReloadedPRRs,
		Plan:              jplan,
	}
}

// ErrorJSON is the body of every non-2xx response.
type ErrorJSON struct {
	Error string `json:"error"`
}

// EvolveJSON is the body of GET /debug/evolve: every cohort's
// Continuous-ReD state (versions, shadow window, recent divergences).
type EvolveJSON struct {
	Databases []EvolveStatus `json:"databases"`
}

// CohortJSON is the body of GET /debug/cohort: every cohort's
// value-table state (version, epoch, fingerprints, provenance).
type CohortJSON struct {
	Databases []ValueTableStatus `json:"databases"`
}

// DecisionsJSON is the body of GET /debug/decisions: the decision
// journal's retained entries, oldest first.
type DecisionsJSON struct {
	// Count is len(Decisions).
	Count int `json:"count"`
	// Device echoes the ?device= filter ("" = whole fleet).
	Device string `json:"device,omitempty"`
	// Decisions are the journal entries.
	Decisions []obs.Entry `json:"decisions"`
}
