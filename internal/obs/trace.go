package obs

import "time"

// Stage names of the decide path, in execution order. The runtime
// layer reports spans under these names; the fleet layer feeds them
// into the clr_decision_stage_seconds histograms.
const (
	// StageFilter is the feasibility filter over the stored database.
	StageFilter = "filter"
	// StageScore is the uRA/AuRA (or hypervolume) scoring pass.
	StageScore = "score"
	// StageSwitch is pricing the transition to the chosen point: its
	// dRC decomposition. The imperative plan is built outside the
	// stage, where and when a caller needs it.
	StageSwitch = "switch"
	// StageAgent is the AuRA agent's online value update.
	StageAgent = "agent_update"
)

// Stages lists the decide-path stage names in execution order.
func Stages() []string {
	return []string{StageFilter, StageScore, StageSwitch, StageAgent}
}

// Span is one timed stage of a trace.
type Span struct {
	// Name is the stage name (StageFilter, ...).
	Name string `json:"name"`
	// Seconds is the stage's wall-clock duration.
	Seconds float64 `json:"seconds"`
}

// Trace accumulates the spans of one decision under one trace ID. It
// is not safe for concurrent use: one trace belongs to one request,
// which runs the decide path sequentially. The zero Trace is not
// usable; build one with NewTrace.
//
// A trace builds one end closure per stage name, on the stage's first
// Stage call, and hands it out again on every later one: a batch that
// times thousands of decisions on one trace (see Reset) allocates
// nothing per span. A stage is open at most once at a time: calling
// Stage for a stage whose end has not run restarts it.
type Trace struct {
	id     TraceID
	clock  Clock
	spans  []Span
	stages []openStage
}

// openStage is one stage name's reusable span state: when it last
// started, and the closure that ends it.
type openStage struct {
	name  string
	start time.Time
	end   func()
}

// NewTrace opens a trace. A nil clock selects NowClock.
func NewTrace(id TraceID, clock Clock) *Trace {
	if clock == nil {
		clock = NowClock
	}
	return &Trace{id: id, clock: clock, spans: make([]Span, 0, 4), stages: make([]openStage, 0, 4)}
}

// ID returns the trace's ID.
func (t *Trace) ID() TraceID { return t.id }

// Reset discards the ended spans, keeping the ID, clock, span storage
// and end closures: a batch run can time each event on one trace
// instead of allocating one per event. The caller must have copied out
// any spans it still needs (Spans returns the trace's own storage).
func (t *Trace) Reset() { t.spans = t.spans[:0] }

// Stage opens a span and returns the closure that ends it. The
// canonical shapes are
//
//	defer t.Stage(obs.StageScore)()
//
// for a span covering the rest of the function, or
//
//	end := t.Stage(obs.StageFilter)
//	... the stage ...
//	end()
//
// for a span covering a region. Every started span must be ended —
// the tracectx analyzer flags a discarded end closure. Stage
// implements the runtime layer's StageRecorder contract.
func (t *Trace) Stage(name string) func() {
	st := &t.stages[t.stage(name)]
	st.start = t.clock()
	return st.end
}

// stage returns the index of name's span state, adding it with its end
// closure on the name's first use.
func (t *Trace) stage(name string) int {
	for i := range t.stages {
		if t.stages[i].name == name {
			return i
		}
	}
	i := len(t.stages)
	t.stages = append(t.stages, openStage{name: name, end: func() { t.endStage(i) }})
	return i
}

// endStage ends stage i's span: the span records the time since the
// stage's last start.
func (t *Trace) endStage(i int) {
	st := &t.stages[i]
	t.spans = append(t.spans, Span{Name: st.name, Seconds: t.clock().Sub(st.start).Seconds()})
}

// Spans returns the ended spans in end order. The returned slice is
// the trace's own storage; callers must not retain it past the
// trace's lifetime.
func (t *Trace) Spans() []Span { return t.spans }

// Seconds returns the duration of the named stage, or 0 with false
// when the stage never ended.
func (t *Trace) Seconds(name string) (float64, bool) {
	for _, s := range t.spans {
		if s.Name == name {
			return s.Seconds, true
		}
	}
	return 0, false
}
