package runtime

// Observability contract of the decide path. The runtime layer is
// deterministic — it never reads the wall clock (see the detrand
// analyzer) — so stage timing is delegated to a caller-supplied
// StageRecorder whose clock lives outside this package; obs.Trace is
// the production implementation. A nil recorder costs nothing, which
// keeps the simulator and the Decide microbenchmark on the exact
// pre-observability hot path.

import "clrdse/internal/obs"

// Decide-path stage names, re-exported from obs so callers and the
// runtime agree on span vocabulary.
const (
	// StageFilter is the feasibility filter over the stored database.
	StageFilter = obs.StageFilter
	// StageScore is the uRA/AuRA (or hypervolume) scoring pass.
	StageScore = obs.StageScore
	// StageSwitch is pricing the transition to the chosen point (its
	// cost decomposition); the plan is built outside the stage.
	StageSwitch = obs.StageSwitch
	// StageAgent is the AuRA agent's online value update.
	StageAgent = obs.StageAgent
)

// StageRecorder times the decide path's stages: Stage opens a span
// and returns the closure that closes it. Implementations must be
// cheap — the recorder runs under the manager's lock. obs.Trace
// satisfies the contract.
type StageRecorder interface {
	Stage(name string) func()
}

// startStage opens a span on rec, tolerating a nil recorder.
func startStage(rec StageRecorder, name string) func() {
	if rec == nil {
		return func() {}
	}
	return rec.Stage(name)
}

// DecisionDetail explains how a decision was produced — the journal's
// raw material. It is observational only: two runs that decide
// identically report identical details.
type DecisionDetail struct {
	// Candidates is how many stored points survived the feasibility
	// filter and were scored (1 on the trigger-skip fast path: the
	// current point satisfied the spec and no re-optimisation ran).
	Candidates int
	// Infeasible is how many stored points the filter rejected.
	Infeasible int
	// Score is the chosen point's selection score: RET for the RET
	// policy, swept QoS-plane area for hypervolume, 0 when no scoring
	// ran (trigger skip or unsatisfiable spec).
	Score float64
	// TriggerSkipped reports the on-violation fast path: the current
	// configuration already satisfied the spec.
	TriggerSkipped bool
}
