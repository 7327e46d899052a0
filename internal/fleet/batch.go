package fleet

// Batched decisions: many QoS events — multiple devices, multiple
// events per device — scored in one registry call. The point is to
// amortise the per-request costs of the served path (HTTP round trip,
// codec, handler allocations) over a run of events: per-device
// ordering is preserved (events for one device decide in their batch
// order under a single semaphore acquisition), the exactly-once replay
// cache applies per event exactly as on the single-event path, and a
// failed event (unknown device, stale sequence, degraded answer)
// never poisons its neighbours — every slot carries its own outcome.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"clrdse/internal/obs"
	"clrdse/internal/runtime"
)

// BatchEvent is one QoS event inside a batch, addressed to a device.
type BatchEvent struct {
	// Device is the registered device ID.
	Device string
	// Seq is the device's event sequence number (0 bypasses the
	// exactly-once replay cache, as on the single-event path).
	Seq uint64
	// Spec is the new QoS requirement.
	Spec runtime.QoSSpec
}

// BatchOutcome is one event's result: either an outcome (possibly
// replayed or degraded) or an error (unknown device, stale sequence).
type BatchOutcome struct {
	Out DecideOutcome
	Err error
}

// batchRun is one device's run of events inside a batch: indices into
// the events slice, in arrival order.
type batchRun struct {
	device string
	idx    []int
}

// batchPlan is pooled scratch for DecideBatch's grouping pass and
// the join of its shard groups.
type batchPlan struct {
	runs    []batchRun
	byDev   map[string]int   // device -> index into runs
	byShard map[*shard][]int // shard -> indices into runs
	shards  []*shard         // first-appearance shard order
	idxPool [][]int          // recycled index slices
	wg      sync.WaitGroup   // joins the shard groups handed to workers
}

var batchPlanPool = sync.Pool{New: func() any {
	return &batchPlan{
		byDev:   make(map[string]int),
		byShard: make(map[*shard][]int),
	}
}}

func (p *batchPlan) reset() {
	for i := range p.runs {
		p.idxPool = append(p.idxPool, p.runs[i].idx[:0])
	}
	p.runs = p.runs[:0]
	clear(p.byDev)
	for _, sh := range p.shards {
		p.idxPool = append(p.idxPool, p.byShard[sh][:0])
	}
	// The keys must go too, not just the values: planning treats "key
	// present" as "shard already in p.shards", so a key surviving from
	// the previous batch would silently drop this batch's runs for
	// that shard (they would be appended to a slice nobody executes).
	clear(p.byShard)
	p.shards = p.shards[:0]
}

func (p *batchPlan) newIdx() []int {
	if n := len(p.idxPool); n > 0 {
		s := p.idxPool[n-1]
		p.idxPool = p.idxPool[:n-1]
		return s
	}
	return nil
}

// DecideBatch reacts to a batch of QoS events, writing one outcome per
// event into results (len(results) must equal len(events); slots whose
// Err is already non-nil are skipped — the HTTP layer pre-fills them
// for events that failed wire validation). Events for one device are
// decided in batch order under a single semaphore acquisition, so the
// per-device decision sequence is byte-identical to feeding the same
// events one at a time. Distinct shards decide concurrently — one
// goroutine per shard touched, never one per event.
func (r *Registry) DecideBatch(ctx context.Context, events []BatchEvent, results []BatchOutcome) {
	r.decideBatch(ctx, events, results)
	for i := range results {
		results[i].Out.withPlan()
	}
}

// AppendDecideBatch is DecideBatch answered on the binary wire, the
// batch endpoint's binary path without HTTP: it decides events into
// results as DecideBatch does — except that a reconfiguration's
// outcome carries the Index that decided it in place of a plan — and
// appends the CLRB response (AppendBatchOutcomes, each plan written
// from its index) to dst.
func (r *Registry) AppendDecideBatch(ctx context.Context, dst []byte, events []BatchEvent, results []BatchOutcome) ([]byte, error) {
	r.decideBatch(ctx, events, results)
	return AppendBatchOutcomes(dst, events, results)
}

// decideBatch is DecideBatch leaving each reconfiguration's plan to
// the encoder (see DecideOutcome.Index). The calling goroutine decides
// the first shard's runs; every other shard's runs go to a shard
// worker (see dispatch), so a device stalled in one shard delays only
// the devices queued behind it in that shard.
func (r *Registry) decideBatch(ctx context.Context, events []BatchEvent, results []BatchOutcome) {
	if len(events) == 0 {
		return
	}
	if len(results) != len(events) {
		panic(fmt.Sprintf("fleet: DecideBatch results len %d != events len %d", len(results), len(events)))
	}
	p := batchPlanPool.Get().(*batchPlan)
	p.reset()
	for i := range events {
		if results[i].Err != nil {
			continue // pre-failed by the caller's validation
		}
		ri, ok := p.byDev[events[i].Device]
		if !ok {
			sh := r.shardFor(events[i].Device)
			ri = len(p.runs)
			p.byDev[events[i].Device] = ri
			p.runs = append(p.runs, batchRun{device: events[i].Device, idx: p.newIdx()})
			if _, seen := p.byShard[sh]; !seen {
				p.shards = append(p.shards, sh)
				p.byShard[sh] = p.newIdx()
			}
			p.byShard[sh] = append(p.byShard[sh], ri)
		}
		p.runs[ri].idx = append(p.runs[ri].idx, i)
	}
	if len(p.shards) > 0 { // else every event was pre-failed
		if n := len(p.shards) - 1; n > 0 {
			p.wg.Add(n)
			for _, sh := range p.shards[1:] {
				dispatch(shardJob{r: r, ctx: ctx, p: p, runIdx: p.byShard[sh], events: events, results: results})
			}
		}
		r.decideRuns(ctx, p, p.byShard[p.shards[0]], events, results)
		// Every shard group is joined before p is reset and pooled again.
		p.wg.Wait()
	}
	batchPlanPool.Put(p)
}

// decideRuns decides the runs at runIdx, in order.
func (r *Registry) decideRuns(ctx context.Context, p *batchPlan, runIdx []int, events []BatchEvent, results []BatchOutcome) {
	for _, ri := range runIdx {
		r.decideRun(ctx, &p.runs[ri], events, results)
	}
}

// parkedWorkers is how many idle shard workers the process keeps
// between batches: two per shard of a default registry, so a batch
// touching every shard, and another arriving meanwhile, find theirs
// parked.
const parkedWorkers = 2 * DefaultShards

// shardJob is one shard group of a batch, handed to a shard worker.
type shardJob struct {
	r       *Registry
	ctx     context.Context
	p       *batchPlan
	runIdx  []int
	events  []BatchEvent
	results []BatchOutcome
}

// parked holds the inboxes of idle shard workers. A worker's stack
// has grown to the decide path's depth on its first job and keeps
// that size between jobs, so a batch's shard groups start neither a
// goroutine nor a stack copy while enough workers are parked.
var parked = make(chan chan shardJob, parkedWorkers)

// dispatch hands job to a parked shard worker, or starts one when none
// is parked.
func dispatch(job shardJob) {
	select {
	case inbox := <-parked:
		inbox <- job
	default:
		go shardWorker(job)
	}
}

// shardWorker decides job, then parks for the next one; when the
// parked set is full it exits instead.
func shardWorker(job shardJob) {
	inbox := make(chan shardJob, 1)
	for {
		job.r.decideRuns(job.ctx, job.p, job.runIdx, job.events, job.results)
		job.p.wg.Done()
		job = shardJob{} // keep nothing of a finished batch alive
		select {
		case parked <- inbox:
			job = <-inbox
		default:
			return
		}
	}
}

// decideRun scores one device's run of events; an unknown device
// answers ErrNoDevice in every slot.
func (r *Registry) decideRun(ctx context.Context, run *batchRun, events []BatchEvent, results []BatchOutcome) {
	d, err := r.lookup(run.device)
	if err != nil {
		for _, i := range run.idx {
			results[i] = BatchOutcome{Err: err}
		}
		return
	}
	r.decideDevice(ctx, d, run.idx, events, results)
}

// decideDevice decides the events at idx, all addressed to d, in order
// under one semaphore acquisition. It re-checks the removal tombstone
// once the semaphore is held: a device exported off this node between
// lookup and acquire answers ErrNoDevice in every slot — the caller
// re-resolves ownership — instead of committing decisions the
// already-pushed handoff bundle can never contain. An acquire that
// outlives ctx degrades every slot, and per-event faults (stale
// sequence, hook faults) land only in their own slot.
func (r *Registry) decideDevice(ctx context.Context, d *device, idx []int, events []BatchEvent, results []BatchOutcome) {
	// The trace ID rides the context from the edge (HTTP middleware or
	// client call root); the registry never mints one mid-stack. One
	// pooled trace times the whole run: the journal copies each event's
	// spans out, so resetting between events is safe, and the trace's
	// end closures serve run after run.
	traceID := obs.TraceIDFrom(ctx)
	tr := r.traces.Get().(*obs.Trace)
	defer r.traces.Put(tr)
	// The run's first event is timed from before the acquire, so the
	// latency histogram sees semaphore waits on every path.
	start := time.Now()
	acqErr := d.acquire(ctx)
	if d.removed.Load() {
		if acqErr == nil {
			d.release()
		}
		nde := fmt.Errorf("%w: %q", ErrNoDevice, d.id)
		for _, i := range idx {
			results[i] = BatchOutcome{Err: nde}
		}
		return
	}
	if acqErr != nil {
		// The device's decision path is wedged past our deadline:
		// answer degraded without touching any state.
		for _, i := range idx {
			tr.Reset()
			results[i] = BatchOutcome{Out: r.degrade(d, events[i].Seq, events[i].Spec, tr, traceID, acqErr)}
		}
		return
	}
	for k, i := range idx {
		if k > 0 {
			start = time.Now()
		}
		tr.Reset()
		out, err := r.decideLocked(ctx, d, events[i].Seq, events[i].Spec, tr, traceID)
		if err == nil && !out.Replayed && !out.Degraded {
			r.decisionLat.Observe(time.Since(start).Seconds())
		}
		results[i] = BatchOutcome{Out: out, Err: err}
	}
	d.release()
}
