// Package schedule implements CLR-integrated task scheduling
// (Section 3.4) and the system-level QoS and performance estimation of
// Table 3. Given a complete mapping — per task: PE binding,
// implementation, CLR configuration and priority — a static
// priority-driven list scheduler produces average start/end times
// (SST_t, SET_t) for every task, from which the application metrics
// are derived:
//
//	S_app — average makespan:            max_t SET_t            (Eq. 1)
//	F_app — functional reliability:      sum_t zeta_t (1-ErrProb_t) (Eq. 2)
//	W_app — peak power:                  max_x sum of active W_t (Eq. 3)
//	J_app — energy:                      sum_t AvgExT_t * W_t    (Eq. 3)
//
// Cross-PE data dependencies pay the edge's communication time;
// same-PE dependencies are free. Consecutive accelerator tasks on a
// PRR-backed PE that require different circuits pay the bitstream
// reconfiguration time between them (time-multiplexed PRR use).
package schedule

import (
	"fmt"
	"math"
	"sync"

	"clrdse/internal/mapping"
	"clrdse/internal/plot"
	"clrdse/internal/relmodel"
	"clrdse/internal/taskgraph"
)

// Slot is one task's placement in the computed schedule.
type Slot struct {
	// Task is the task ID.
	Task int
	// PE is the processing element the task executes on.
	PE int
	// StartMs and EndMs are the average start and end times (SST_t and
	// SET_t); durations use the implementation's AvgExT under its CLR
	// configuration.
	StartMs, EndMs float64
	// Metrics are the task-level Table 2 metrics for the chosen
	// (implementation, PE, CLR configuration).
	Metrics relmodel.TaskMetrics
}

// Result aggregates the schedule and the Table 3 system metrics.
type Result struct {
	// Slots is indexed by task ID.
	Slots []Slot
	Summary
}

// Summary is the Table 3 system metrics of a schedule, without its
// slots.
type Summary struct {
	// MakespanMs is S_app.
	MakespanMs float64
	// Reliability is F_app in [0,1].
	Reliability float64
	// PeakPowerW is W_app.
	PeakPowerW float64
	// EnergyMJ is J_app in millijoules (watts x milliseconds).
	EnergyMJ float64
	// MTTFMs is the lifetime estimate of the configuration: the
	// minimum task-level MTTF across the mapping (the first PE wear-out
	// limits the system).
	MTTFMs float64
	// MeetsPeriod reports whether the makespan fits within the
	// application period (one execution cycle).
	MeetsPeriod bool
}

// Evaluator computes schedules and system metrics for mappings within
// one problem instance. It is stateless apart from the instance
// definition and safe for concurrent use.
type Evaluator struct {
	// Space is the problem instance (graph, platform, catalogue).
	Space *mapping.Space
	// Env holds the fault-rate and aging environment.
	Env relmodel.Env
	// ContentionAware, when set, models the on-chip interconnect as a
	// shared medium: cross-PE transfers serialise on it instead of
	// only adding latency. The default (off) is the paper's additive
	// communication-delay model of Table 3.
	ContentionAware bool
}

// Evaluate schedules the mapping and returns the system metrics. The
// mapping must be valid for the space. Task durations are the
// analytical average execution times (Table 3's average start/end
// semantics).
func (e *Evaluator) Evaluate(m *mapping.Mapping) (*Result, error) {
	res := &Result{Slots: make([]Slot, len(m.Genes))}
	if err := e.run(m, nil, res.Slots, &res.Summary); err != nil {
		return nil, err
	}
	return res, nil
}

// Summarize is Evaluate without the slots: the same schedule, whose
// slots live in the call's pooled scratch, and the same metrics, bit
// for bit. Steady-state calls allocate nothing.
func (e *Evaluator) Summarize(m *mapping.Mapping) (Summary, error) {
	var sum Summary
	err := e.run(m, nil, nil, &sum)
	return sum, err
}

// Timeline schedules the mapping with caller-supplied per-task
// durations (one entry per task ID, in ms) instead of the analytical
// averages — used by the fault-injection simulator to measure the
// makespan distribution under sampled re-execution times. All other
// metrics still derive from the analytical task models.
func (e *Evaluator) Timeline(m *mapping.Mapping, durationsMs []float64) (*Result, error) {
	if len(durationsMs) != e.Space.Graph.NumTasks() {
		return nil, fmt.Errorf("schedule: %d durations for %d tasks", len(durationsMs), e.Space.Graph.NumTasks())
	}
	for t, d := range durationsMs {
		// !(d > 0) also catches NaN, which every comparison fails and
		// the schedule would silently drop from the makespan.
		if !(d > 0) || math.IsInf(d, 1) {
			return nil, fmt.Errorf("schedule: duration %v for task %d is not positive and finite", d, t)
		}
	}
	res := &Result{Slots: make([]Slot, len(m.Genes))}
	if err := e.run(m, durationsMs, res.Slots, &res.Summary); err != nil {
		return nil, err
	}
	return res, nil
}

// run schedules the mapping into slots (one per task) and computes the
// system metrics into sum. With nil slots the schedule lives in the
// pooled scratch.
func (e *Evaluator) run(m *mapping.Mapping, durOverride []float64, slots []Slot, sum *Summary) error {
	if err := e.Space.Validate(m); err != nil {
		return err
	}
	g := e.Space.Graph
	plat := e.Space.Platform
	n := g.NumTasks()

	// The working state lives in pooled scratch; it is rebuilt from
	// the graph on every call, so a graph edited between calls is
	// scheduled as it now stands.
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.reset(g, m.Genes, plat.NumPEs())
	if slots == nil {
		sc.slots = resize(sc.slots, n)
		slots = sc.slots
	}

	// Task-level metrics for the chosen implementation and CLR config.
	for t := 0; t < n; t++ {
		gene := m.Genes[t]
		im := &g.Tasks[t].Impls[gene.Impl]
		pt := plat.TypeOf(gene.PE)
		slots[t] = Slot{
			Task:    t,
			PE:      gene.PE,
			Metrics: relmodel.Evaluate(im, pt, gene.CLR, e.Space.Catalogue, e.Env),
		}
	}

	// Priority-driven list scheduling.
	rq := readyQueue{genes: m.Genes, heap: sc.ready}
	for t := 0; t < n; t++ {
		if sc.remaining[t] == 0 {
			rq.push(t)
		}
	}
	scheduled := 0
	busAvail := 0.0
	for len(rq.heap) > 0 {
		t := rq.pop()

		gene := m.Genes[t]
		slot := &slots[t]
		if e.ContentionAware {
			// Cross-PE transfers serialise on the shared interconnect
			// in scheduling order; every predecessor is already placed
			// when the list scheduler reaches t.
			for _, eid := range sc.preds.of(t) {
				edge := g.Edges[eid]
				arrive := slots[edge.Src].EndMs
				if m.Genes[edge.Src].PE != gene.PE {
					ts := math.Max(busAvail, arrive)
					arrive = ts + edge.CommTimeMs
					busAvail = arrive
				}
				if arrive > sc.dataReady[t] {
					sc.dataReady[t] = arrive
				}
			}
		}
		start := math.Max(sc.peAvail[gene.PE], sc.dataReady[t])

		// Time-multiplexed PRR use: swapping circuits costs a
		// bitstream load before the task can start.
		im := &g.Tasks[t].Impls[gene.Impl]
		if im.BitstreamID >= 0 {
			prr := plat.PEs[gene.PE].PRR
			if last := sc.peLastBitstream[gene.PE]; last >= 0 && last != im.BitstreamID {
				start += plat.BitstreamLoadMs(plat.PRRs[prr].BitstreamKB)
			}
			sc.peLastBitstream[gene.PE] = im.BitstreamID
		}

		dur := slot.Metrics.AvgExTMs
		if durOverride != nil {
			dur = durOverride[t]
		}
		slot.StartMs = start
		slot.EndMs = start + dur
		sc.peAvail[gene.PE] = slot.EndMs
		sc.peOrder[sc.peNext[gene.PE]] = t
		sc.peNext[gene.PE]++
		scheduled++

		for _, eid := range sc.succs.of(t) {
			edge := g.Edges[eid]
			if !e.ContentionAware {
				arrive := slot.EndMs
				if m.Genes[edge.Dst].PE != gene.PE {
					arrive += edge.CommTimeMs
				}
				if arrive > sc.dataReady[edge.Dst] {
					sc.dataReady[edge.Dst] = arrive
				}
			}
			sc.remaining[edge.Dst]--
			if sc.remaining[edge.Dst] == 0 {
				rq.push(edge.Dst)
			}
		}
	}
	sc.ready = rq.heap[:0] // keep the grown capacity
	if scheduled != n {
		return fmt.Errorf("schedule: only %d of %d tasks schedulable (cyclic graph?)", scheduled, n)
	}

	// System-level metrics (Table 3).
	*sum = Summary{MTTFMs: math.Inf(1)}
	for t := 0; t < n; t++ {
		s := &slots[t]
		if s.EndMs > sum.MakespanMs {
			sum.MakespanMs = s.EndMs
		}
		sum.Reliability += g.Tasks[t].Criticality * (1 - s.Metrics.ErrProb)
		sum.EnergyMJ += s.Metrics.AvgExTMs * s.Metrics.PowerW
		if s.Metrics.MTTFMs < sum.MTTFMs {
			sum.MTTFMs = s.Metrics.MTTFMs
		}
	}
	sum.PeakPowerW = sc.peakPower(slots)
	sum.MeetsPeriod = sum.MakespanMs <= g.PeriodMs
	return nil
}

// scratch is one evaluation's working state. It is pooled, so a
// steady-state evaluation allocates only its Result, and a slot-free
// one nothing; nothing is kept on the Space, whose graph a caller may
// edit between evaluations.
type scratch struct {
	preds, succs    adjacency
	remaining       []int // unscheduled predecessor count
	dataReady       []float64
	peAvail         []float64
	peLastBitstream []int
	ready           []int // readyQueue storage
	// peOrder lists each PE's tasks in dispatch order, in compressed
	// form: PE p's are peOrder[peOff[p]:peOff[p+1]]. peNext[p] is the
	// next free position of PE p's run while the scheduler fills it.
	peOff, peNext, peOrder []int
	slots                  []Slot // a slot-free evaluation's schedule
	events, spare          []powerEvent
	bounds                 []int // the event runs' boundaries
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// reset sizes the scratch for the graph, the mapping's genes and a
// platform of nPE PEs, and builds the dependency lists from the graph's
// current edges.
func (sc *scratch) reset(g *taskgraph.Graph, genes []mapping.Gene, nPE int) {
	n := g.NumTasks()
	sc.peOff = resize(sc.peOff, nPE+1)
	clear(sc.peOff)
	for t := range genes {
		sc.peOff[genes[t].PE+1]++
	}
	for p := 0; p < nPE; p++ {
		sc.peOff[p+1] += sc.peOff[p]
	}
	sc.peNext = resize(sc.peNext, nPE)
	copy(sc.peNext, sc.peOff)
	sc.peOrder = resize(sc.peOrder, n)
	sc.preds.build(g, n, func(e *taskgraph.Edge) int { return e.Dst })
	sc.succs.build(g, n, func(e *taskgraph.Edge) int { return e.Src })
	sc.remaining = resize(sc.remaining, n)
	for t := 0; t < n; t++ {
		sc.remaining[t] = len(sc.preds.of(t))
	}
	sc.dataReady = resize(sc.dataReady, n)
	clear(sc.dataReady)
	sc.peAvail = resize(sc.peAvail, nPE)
	clear(sc.peAvail)
	sc.peLastBitstream = resize(sc.peLastBitstream, nPE)
	for i := range sc.peLastBitstream {
		sc.peLastBitstream[i] = -1
	}
	sc.ready = sc.ready[:0]
}

// resize returns xs with length n, reusing its storage when it fits.
// The contents are unspecified.
func resize[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	return xs[:n]
}

// adjacency lists each task's incident edge IDs in compressed form:
// task t's are ids[off[t]:off[t+1]], in edge order — the order
// Graph.Preds and Graph.Succs list them.
type adjacency struct {
	off, ids []int
}

// build indexes the graph's edges by the task end picks.
func (a *adjacency) build(g *taskgraph.Graph, n int, end func(*taskgraph.Edge) int) {
	a.off = resize(a.off, n+1)
	clear(a.off)
	for i := range g.Edges {
		a.off[end(&g.Edges[i])+1]++
	}
	for t := 0; t < n; t++ {
		a.off[t+1] += a.off[t]
	}
	a.ids = resize(a.ids, len(g.Edges))
	// off[t+1] is now the end of task t's run. Fill each run from its
	// end, walking the edges backwards so the run keeps edge order;
	// off[t+1] then holds the run's start, one slot late.
	for i := len(g.Edges) - 1; i >= 0; i-- {
		e := &g.Edges[i]
		t := end(e)
		a.off[t+1]--
		a.ids[a.off[t+1]] = e.ID
	}
	copy(a.off[:n], a.off[1:])
	a.off[n] = len(g.Edges)
}

func (a *adjacency) of(t int) []int { return a.ids[a.off[t]:a.off[t+1]] }

// readyQueue is the list scheduler's ready set: a binary heap that
// pops tasks by priority, highest first, ties by lower task ID. The
// order is total, so it pops exactly the sequence that re-sorting the
// ready list before every pop would.
type readyQueue struct {
	genes []mapping.Gene
	heap  []int
}

// before reports whether task a pops before task b.
func (q *readyQueue) before(a, b int) bool {
	pa, pb := q.genes[a].Prio, q.genes[b].Prio
	if pa != pb {
		return pa > pb
	}
	return a < b
}

func (q *readyQueue) push(t int) {
	q.heap = append(q.heap, t)
	for i := len(q.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.before(q.heap[i], q.heap[p]) {
			break
		}
		q.heap[i], q.heap[p] = q.heap[p], q.heap[i]
		i = p
	}
}

func (q *readyQueue) pop() int {
	h := q.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && q.before(h[c+1], h[c]) {
			c++
		}
		if !q.before(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	q.heap = h
	return top
}

// powerEvent is a task start (+power) or end (-power) in the peak
// power sweep.
type powerEvent struct {
	at, delta float64
}

// before is the sweep's event order: by time, and departures before
// arrivals at equal times (the lower delta first), so back-to-back
// tasks do not double-count. Events equal in both fields are
// interchangeable: their order cannot change the sweep's sums.
func (a powerEvent) before(b powerEvent) bool {
	return a.at < b.at || a.at == b.at && a.delta < b.delta
}

// peakPower sweeps the schedule's start/end events in time order and
// returns the maximum instantaneous sum of active task powers (Eq. 3's
// W_app). The events are laid out as one run per PE, in dispatch order:
// start₁, end₁, start₂, end₂, … Each run is already in sweep order,
// because a task ends after it starts (EndMs > StartMs) and starts no
// earlier than its predecessor on the PE ends (start >= peAvail). The
// build still places each event by insertion, which moves nothing then
// and keeps the run ordered should a duration be absorbed by rounding.
// The runs are merged pairwise, bottom up: the same event order as
// sorting them all, up to interchangeable events, so the same sum.
func (sc *scratch) peakPower(slots []Slot) float64 {
	evs := resize(sc.events, 2*len(slots))
	bounds := append(sc.bounds[:0], 0)
	k := 0
	for p := 0; p+1 < len(sc.peOff); p++ {
		lo := k
		for _, t := range sc.peOrder[sc.peOff[p]:sc.peOff[p+1]] {
			s := &slots[t]
			k = insertEvent(evs, lo, k, powerEvent{s.StartMs, s.Metrics.PowerW})
			k = insertEvent(evs, lo, k, powerEvent{s.EndMs, -s.Metrics.PowerW})
		}
		if k > lo {
			bounds = append(bounds, k)
		}
	}
	spare := resize(sc.spare, len(evs))
	sc.events, sc.spare, sc.bounds = evs, spare, bounds
	cur, peak := 0.0, 0.0
	for _, ev := range mergeRuns(evs, spare, bounds) {
		cur += ev.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// insertEvent places ev into the ordered run evs[lo:k] and returns the
// run's new end.
func insertEvent(evs []powerEvent, lo, k int, ev powerEvent) int {
	i := k
	for ; i > lo && ev.before(evs[i-1]); i-- {
		evs[i] = evs[i-1]
	}
	evs[i] = ev
	return k + 1
}

// mergeRuns merges the ordered runs evs[bounds[i]:bounds[i+1]]
// pairwise, bottom up, alternating between evs and spare, and returns
// the merged events. It overwrites bounds.
func mergeRuns(evs, spare []powerEvent, bounds []int) []powerEvent {
	src, dst := evs, spare
	for len(bounds) > 2 {
		n := 1
		for i := 0; i+1 < len(bounds); i += 2 {
			lo, hi := bounds[i], bounds[i+1]
			if i+2 < len(bounds) {
				mid := hi
				hi = bounds[i+2]
				mergeTwo(dst[lo:hi], src[lo:mid], src[mid:hi])
			} else {
				copy(dst[lo:hi], src[lo:hi])
			}
			bounds[n] = hi
			n++
		}
		bounds = bounds[:n]
		src, dst = dst, src
	}
	return src
}

// mergeTwo merges the ordered runs a and b into dst, taking a's event
// on a tie.
func mergeTwo(dst, a, b []powerEvent) {
	i, j := 0, 0
	for k := range dst {
		if j == len(b) || i < len(a) && !b[j].before(a[i]) {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
	}
}

// Gantt renders the schedule as an SVG lane chart, one lane per PE,
// with each task bar labelled by its name.
func (r *Result) Gantt(title string, names func(task int) string) string {
	c := &plot.GanttChart{Title: title, LaneNames: map[int]string{}}
	for _, s := range r.Slots {
		label := fmt.Sprintf("t%d", s.Task)
		if names != nil {
			label = names(s.Task)
		}
		c.Bars = append(c.Bars, plot.Bar{
			Lane:    s.PE,
			Label:   label,
			StartMs: s.StartMs,
			EndMs:   s.EndMs,
		})
		c.LaneNames[s.PE] = fmt.Sprintf("PE%d", s.PE)
	}
	return c.SVG()
}
