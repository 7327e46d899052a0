// Package fleet is the network-facing run-time layer at scale: where
// runtime.Manager embeds the paper's uRA/AuRA decision logic in one
// device's control loop, fleet hosts many such managers concurrently
// behind an HTTP/JSON API, in the spirit of the design-time/run-time
// split where a central entity serves precomputed operating points to
// a whole fleet of deployed systems.
//
// The core is a sharded, concurrency-safe device registry: device IDs
// hash onto a fixed set of shards, each guarded by its own RWMutex, so
// registrations and decisions for unrelated devices never contend on a
// single lock. Decisions for one device serialise on that device's own
// mutex, preserving the Manager's sequential semantics — the decision
// sequence for a device is byte-identical to feeding the same QoS
// events to a single in-process Manager.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clrdse/internal/dse"
	"clrdse/internal/fleet/metrics"
	"clrdse/internal/mapping"
	"clrdse/internal/obs"
	"clrdse/internal/runtime"
)

// Registry errors, distinguished so the HTTP layer can map them to
// status codes.
var (
	// ErrDeviceExists reports a duplicate registration.
	ErrDeviceExists = errors.New("fleet: device already registered")
	// ErrNoDevice reports an unknown device ID.
	ErrNoDevice = errors.New("fleet: no such device")
	// ErrNoDatabase reports an unknown database name.
	ErrNoDatabase = errors.New("fleet: no such database")
	// ErrStaleSeq reports a QoS event whose sequence number is behind
	// the device's already-decided sequence — a late duplicate of an
	// event the device has moved past.
	ErrStaleSeq = errors.New("fleet: stale sequence number")
)

// DecideHook, when installed, runs inside the decision path before the
// manager decides, holding the device lock. A non-nil error (a fault:
// an injected stall that outlived the deadline, a corrupted database
// entry) makes the registry degrade to the device's last known-good
// configuration instead of deciding. Production deployments leave it
// nil; the chaos layer injects faults through it.
type DecideHook func(ctx context.Context, device string, seq uint64) error

// NamedDatabase couples a pruned design-point database with the
// mapping space it was built for, under the name devices register
// against.
type NamedDatabase struct {
	// Name is the registration key ("red", "based", ...).
	Name string
	// DB is the stored design-point database.
	DB *dse.Database
	// Space prices reconfigurations between the stored points.
	Space *mapping.Space

	// index is the immutable decide index of this database version —
	// the mappings, the feasibility rows and the pairwise dRC matrix —
	// built once per version and shared
	// read-only by every manager deciding on it (active, shadow,
	// retained and imported alike), so registering a device costs O(1)
	// memory in the database size.
	index *runtime.Index
	// keys/keyIdx are the per-point canonical mapping keys and their
	// reverse index, built with the index. Point IDs are only
	// meaningful within one database version; the keys identify
	// configurations across versions (shadow agreement, migration
	// remapping).
	keys   []string
	keyIdx map[string]int
	// fp is the content fingerprint (see Fingerprint), built with the
	// keys. Version numbers alone cannot distinguish two databases
	// independently evolved to the same number on different nodes; the
	// fingerprint can.
	fp uint64
}

// Envelope returns the database's QoS metric ranges — the satisfiable
// region load generators and registrants should draw specs from.
func (n NamedDatabase) Envelope() (minS, maxS, minF, maxF float64) {
	minS, maxS = math.Inf(1), math.Inf(-1)
	minF, maxF = math.Inf(1), math.Inf(-1)
	for _, p := range n.DB.Points {
		minS = math.Min(minS, p.MakespanMs)
		maxS = math.Max(maxS, p.MakespanMs)
		minF = math.Min(minF, p.Reliability)
		maxF = math.Max(maxF, p.Reliability)
	}
	return minS, maxS, minF, maxF
}

// DefaultShards is the registry's default shard count. 32 keeps lock
// contention negligible up to a few hundred concurrent requesters
// while wasting no measurable memory for small fleets.
const DefaultShards = 32

// DeviceParams registers one device.
type DeviceParams struct {
	// ID names the device; it must be non-empty and URL-path-safe.
	ID string
	// Database selects the NamedDatabase to decide against.
	Database string
	// PRC is the device's pRC knob in [0,1].
	PRC float64
	// Trigger selects when the device's manager re-optimises.
	Trigger runtime.Trigger
	// Policy selects the scoring rule.
	Policy runtime.Policy
	// Gamma, when positive, upgrades the device's uRA to AuRA with
	// this discount factor (stay-put prior value functions).
	Gamma float64
	// WithAgent forces an AuRA agent even at Gamma == 0. At gamma
	// zero the agent learns but never influences decisions (uRA is
	// subsumed into AuRA per the paper), which is exactly what the
	// cohort A/B harness needs to pin the uRA ≡ AuRA(γ=0) identity
	// while still accepting cohort priors and learning online.
	WithAgent bool
	// MeanInterArrivalCycles calibrates the agent's episode clock
	// (0 selects the paper's 100).
	MeanInterArrivalCycles float64
	// Initial is the device's boot QoS specification.
	Initial runtime.QoSSpec
}

func (p *DeviceParams) validate() error {
	if p.ID == "" {
		return fmt.Errorf("fleet: empty device ID")
	}
	// Every per-device route must reach the device: "?" and "#" would
	// end the path, control bytes cannot be sent in a URL, and ServeMux
	// redirects the dot segments away.
	if p.ID == "." || p.ID == ".." {
		return fmt.Errorf("fleet: device ID %q is a dot segment; IDs must be URL-path-safe", p.ID)
	}
	for _, c := range p.ID {
		if c == '/' || c == '%' || c == ' ' || c == '?' || c == '#' || c < 0x20 || c == 0x7f {
			return fmt.Errorf("fleet: device ID %q contains %q; IDs must be URL-path-safe", p.ID, c)
		}
	}
	if p.PRC < 0 || p.PRC > 1 {
		return fmt.Errorf("fleet: pRC must be in [0,1], got %v", p.PRC)
	}
	if p.Gamma < 0 || p.Gamma >= 1 {
		return fmt.Errorf("fleet: gamma must be in [0,1), got %v", p.Gamma)
	}
	return nil
}

// DeviceStats accumulates one device's decision history.
type DeviceStats struct {
	// Decisions counts QoS events processed (each sequence number
	// exactly once; replays are counted separately).
	Decisions int64
	// Reconfigs counts decisions that moved the configuration.
	Reconfigs int64
	// Violations counts events whose spec no stored point satisfied.
	Violations int64
	// TotalDRCMs is the accumulated reconfiguration cost.
	TotalDRCMs float64
	// Migrations counts migrated task binaries.
	Migrations int64
	// Replays counts retried events answered from the decision cache.
	Replays int64
	// Degraded counts events answered with the last known-good
	// fallback because the decision path faulted or timed out.
	Degraded int64
}

// DeviceInfo is a point-in-time snapshot of one registered device.
type DeviceInfo struct {
	// ID and Database identify the device and its decision basis.
	ID, Database string
	// Point is the stored design-point ID in force.
	Point int
	// MakespanMs, Reliability, EnergyMJ are the point's metrics.
	MakespanMs, Reliability, EnergyMJ float64
	// Stats is the cumulative decision history.
	Stats DeviceStats
	// RegisteredAt is the registration instant.
	RegisteredAt time.Time
}

// device is one registered device. sem is a capacity-1 semaphore
// serialising decisions (preserving the manager's sequential
// semantics) while still letting a caller give up waiting when its
// deadline expires — a wedged decision on this device then degrades
// concurrent requests instead of hanging them. The degraded bits are
// atomics because the degraded path may run without the semaphore.
type device struct {
	sem    chan struct{}
	id     string
	dbName string
	state  *dbState     // the cohort's version state (immutable pointer)
	params DeviceParams // retained for cluster handoff (see ExportDevice)
	stats  DeviceStats
	regAt  time.Time

	// db and mgr are the database version this device currently serves
	// from and the manager built against it. syncVersion swaps them
	// under the device semaphore; they are atomic pointers because the
	// degraded path — which may run without the semaphore — reads them
	// to answer stay-put and stamp the journal's version.
	db  atomic.Pointer[NamedDatabase]
	mgr atomic.Pointer[runtime.Manager]

	// Version-migration state, touched only under the semaphore.
	// shadow/shadowDB dual-serve the cohort's candidate version;
	// prevMgr/prevDB retain the displaced pre-cutover manager for
	// one-step rollback; lastSpec is the device's most recent observed
	// specification, the boot spec for replacement managers.
	shadow   *runtime.Manager
	shadowDB *NamedDatabase
	prevMgr  *runtime.Manager
	prevDB   *NamedDatabase
	lastSpec runtime.QoSSpec
	haveSpec bool

	// Shadow-decision memo, valid only for agentless (uRA) shadow
	// managers, whose decision is a pure function of (current point,
	// spec): when the same spec arrives again with the shadow at the
	// same point, shadowScore replays the cached choice instead of
	// re-deciding. memoMgr keys the memo to one manager instance so a
	// version change self-invalidates it.
	memoMgr  *runtime.Manager
	memoFrom int
	memoSpec runtime.QoSSpec
	memoTo   int

	// Cohort value-table state. vtMgr/vtApplied (touched only under
	// the semaphore) pin which table was applied into which manager
	// instance, so a manager swap self-invalidates the prior;
	// vtVersion is the journal stamp — atomic because the degraded
	// path journals without the semaphore.
	vtMgr     *runtime.Manager
	vtApplied *runtime.ValueTable
	vtVersion atomic.Uint64

	// pctx carries the pprof labels stamped on this device's decide
	// calls. It is built on the device's first decision, under the
	// semaphore: labels and their context allocate, the decide path
	// runs per event, and most of a large fleet may never decide.
	pctx context.Context

	// Replay cache: the last decided sequence number, its decision and
	// the decide index it was made on. Retries of an event reuse its
	// sequence number and are answered from here, so at-least-once
	// delivery yields exactly-once decisions. lastDec carries no plan
	// when lastIx is set: a replay plans it from lastIx, the version
	// that decided it, even after a cutover moved the device on. An
	// imported cache carries its plan and no index.
	lastSeq  uint64
	lastDec  runtime.Decision
	lastIx   *runtime.Index
	haveLast bool

	degraded  atomic.Bool  // currently degraded (clears on next success)
	degradedN atomic.Int64 // lifetime degraded answers

	// removed tombstones a device whose state left this node: set by
	// ExportRemove while the semaphore is held, checked by the decide
	// path after acquiring it. A decide that resolved the device
	// before it was unpublished must not commit to the orphaned
	// object — its decision could never appear in the already-pushed
	// handoff bundle, breaking exactly-once on the importing node.
	removed atomic.Bool
}

// acquire takes the device semaphore, giving up when ctx expires.
func (d *device) acquire(ctx context.Context) error {
	select {
	case d.sem <- struct{}{}:
		return nil
	default:
	}
	select {
	case d.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (d *device) release() { <-d.sem }

// labelCtx returns the context carrying the device's pprof labels,
// building it on first use. It outlives every request, so it derives
// from Background: a request's own labels are not merged in. The
// caller holds the semaphore.
func (d *device) labelCtx() context.Context {
	if d.pctx == nil {
		d.pctx = pprof.WithLabels(context.Background(), pprof.Labels("device", d.id, "stage", "decide"))
	}
	return d.pctx
}

// shard is one lock domain of the registry. Its journal is the
// decision flight recorder for the shard's devices; appends and reads
// are lock-free, so journaling never contends with the shard mutex.
type shard struct {
	mu      sync.RWMutex
	devices map[string]*device
	journal *obs.Journal
}

// Registry is the sharded, concurrency-safe set of per-device
// managers. All methods are safe for concurrent use.
type Registry struct {
	dbs    map[string]*dbState
	names  []string // registration order, for stable listings
	shards []*shard

	// hook, when non-nil, fault-checks the decision path (see
	// DecideHook). Set via SetDecideHook before serving traffic.
	hook DecideHook

	// clock times decisions and journal entries; injected so tests can
	// pin timestamps (nil in NewRegistry selects obs.NowClock).
	clock obs.Clock
	// traces pools the stage recorders of decide runs. A pooled trace
	// carries no ID: a run journals its context's.
	traces sync.Pool

	met *metrics.Registry
	// Fleet-wide instruments (per-endpoint HTTP counters live in the
	// server, which shares met).
	decisions   *metrics.Counter
	reconfigs   *metrics.Counter
	violations  *metrics.Counter
	regTotal    *metrics.Counter
	replays     *metrics.Counter
	degradedTot *metrics.Counter
	timeouts    *metrics.Counter
	explained   *metrics.Counter
	devices     *metrics.Gauge
	degradedDev *metrics.Gauge
	decisionLat *metrics.Histogram
	stageLat    map[string]*metrics.Histogram

	// Continuous-ReD instruments (see evolve.go).
	evolveProposals     *metrics.Counter
	evolveCutovers      *metrics.Counter
	evolveAdoptions     *metrics.Counter
	evolveRollbacks     *metrics.Counter
	evolveDropped       *metrics.Counter
	evolveShadowEvents  *metrics.Counter
	evolveShadowAgree   *metrics.Counter
	evolveShadowDiverge *metrics.Counter

	// Cohort-learning instruments (see cohort.go).
	cohortPublishes *metrics.Counter
	cohortAdoptions *metrics.Counter
	cohortRollbacks *metrics.Counter
	cohortPriors    *metrics.Counter
}

// NewRegistry validates every database (see dse.Database.Validate)
// and builds an empty registry with the given shard count (0 selects
// DefaultShards).
func NewRegistry(dbs []NamedDatabase, shards int) (*Registry, error) {
	if len(dbs) == 0 {
		return nil, fmt.Errorf("fleet: at least one database is required")
	}
	if shards <= 0 {
		shards = DefaultShards
	}
	r := &Registry{
		dbs:    make(map[string]*dbState, len(dbs)),
		shards: make([]*shard, shards),
		met:    metrics.NewRegistry(),
	}
	for i := range dbs {
		db := dbs[i]
		if db.Name == "" {
			return nil, fmt.Errorf("fleet: database %d has no name", i)
		}
		if _, dup := r.dbs[db.Name]; dup {
			return nil, fmt.Errorf("fleet: duplicate database name %q", db.Name)
		}
		if db.DB == nil || db.Space == nil {
			return nil, fmt.Errorf("fleet: database %q: nil database or space", db.Name)
		}
		if err := db.DB.Validate(db.Space); err != nil {
			return nil, fmt.Errorf("fleet: database %q: %w", db.Name, err)
		}
		if err := db.build(); err != nil {
			return nil, fmt.Errorf("fleet: database %q: %w", db.Name, err)
		}
		st := &dbState{
			name: db.Name,
			activeVer: r.met.Gauge("clr_evolve_active_version",
				"Database version currently served, per cohort.", "db", db.Name),
			candVer: r.met.Gauge("clr_evolve_candidate_version",
				"Candidate database version being shadow-served, per cohort (0 when none).", "db", db.Name),
			vtVer: r.met.Gauge("clr_cohort_table_version",
				"Cohort value-table version currently active, per cohort (0 when none published).", "db", db.Name),
		}
		st.active.Store(&db)
		st.activeVer.Set(int64(db.DB.Version))
		r.dbs[db.Name] = st
		r.names = append(r.names, db.Name)
	}
	r.clock = obs.NowClock
	r.traces.New = func() any { return obs.NewTrace("", r.clock) }
	for i := range r.shards {
		r.shards[i] = &shard{
			devices: make(map[string]*device),
			journal: obs.NewJournal(obs.DefaultJournalCap),
		}
	}
	r.decisions = r.met.Counter("clr_fleet_decisions_total",
		"QoS-change decisions served.")
	r.reconfigs = r.met.Counter("clr_fleet_reconfigurations_total",
		"Decisions that moved a device to a different stored point.")
	r.violations = r.met.Counter("clr_fleet_violations_total",
		"Decisions whose specification no stored point satisfied.")
	r.regTotal = r.met.Counter("clr_fleet_registrations_total",
		"Device registrations accepted.")
	r.replays = r.met.Counter("clr_fleet_replays_total",
		"Retried QoS events answered from the per-device decision cache.")
	r.degradedTot = r.met.Counter("clr_fleet_degraded_decisions_total",
		"QoS events answered with the last known-good fallback.")
	r.timeouts = r.met.Counter("clr_fleet_decision_timeouts_total",
		"Decisions abandoned because the deadline expired.")
	r.devices = r.met.Gauge("clr_fleet_devices",
		"Devices currently registered.")
	r.degradedDev = r.met.Gauge("clr_fleet_degraded_devices",
		"Devices currently in degraded mode.")
	r.decisionLat = r.met.Histogram("clr_fleet_decision_latency_seconds",
		"Wall-clock latency of one decision: the first event of a device's run (a single QoS call, or one device's events in a batch) from before the semaphore acquire, each later event of the run from its own start; replays and degraded answers are not observed.", nil)
	r.explained = r.met.Counter("clr_decisions_explained_total",
		"Decisions recorded in the per-shard decision journal (degraded answers included, replays excluded).")
	r.stageLat = make(map[string]*metrics.Histogram, 4)
	for _, st := range obs.Stages() {
		r.stageLat[st] = r.met.Histogram("clr_decision_stage_seconds",
			"Wall-clock latency of one decide-path stage (filter, score, switch, agent_update).",
			metrics.StageLatencyBuckets(), "stage", st)
	}
	r.evolveProposals = r.met.Counter("clr_evolve_proposals_total",
		"Candidate databases installed for shadow serving.")
	r.evolveCutovers = r.met.Counter("clr_evolve_cutovers_total",
		"Candidate databases promoted to active.")
	r.evolveAdoptions = r.met.Counter("clr_evolve_adoptions_total",
		"Active databases adopted from a cluster peer to catch up after a remote cutover.")
	r.evolveRollbacks = r.met.Counter("clr_evolve_rollbacks_total",
		"Cutovers reverted to the previous database version.")
	r.evolveDropped = r.met.Counter("clr_evolve_candidates_dropped_total",
		"Candidate databases withdrawn without a cutover.")
	r.evolveShadowEvents = r.met.Counter("clr_evolve_shadow_events_total",
		"Decisions additionally scored against a candidate database.")
	r.evolveShadowAgree = r.met.Counter("clr_evolve_shadow_agreements_total",
		"Shadow decisions that chose the active decision's configuration.")
	r.evolveShadowDiverge = r.met.Counter("clr_evolve_shadow_divergences_total",
		"Shadow decisions that chose a different configuration than the active database.")
	r.cohortPublishes = r.met.Counter("clr_cohort_publishes_total",
		"Cohort value tables published for serving.")
	r.cohortAdoptions = r.met.Counter("clr_cohort_adoptions_total",
		"Cohort value tables adopted from a cluster peer to catch up after a remote publish.")
	r.cohortRollbacks = r.met.Counter("clr_cohort_rollbacks_total",
		"Cohort value-table publishes reverted to the previous version.")
	r.cohortPriors = r.met.Counter("clr_cohort_priors_applied_total",
		"Device agents seeded from a cohort value table (cold-start inheritance and live re-seeds).")
	return r, nil
}

// SetJournalCap resizes every shard's decision journal to hold cap
// entries (<= 0 selects obs.DefaultJournalCap). Like SetDecideHook it
// must be called before the registry serves traffic: resizing
// discards the journals' contents.
func (r *Registry) SetJournalCap(cap int) {
	for _, sh := range r.shards {
		sh.journal = obs.NewJournal(cap)
	}
}

// SetDecideHook installs the decision-path fault hook. It must be set
// before the registry serves traffic (it is read without a lock).
func (r *Registry) SetDecideHook(h DecideHook) { r.hook = h }

// DegradedDevices returns how many devices are currently degraded.
func (r *Registry) DegradedDevices() int64 { return r.degradedDev.Value() }

// Metrics returns the registry's metrics set (shared with the server).
func (r *Registry) Metrics() *metrics.Registry { return r.met }

// DecisionCount returns the number of decisions served so far.
func (r *Registry) DecisionCount() uint64 { return r.decisions.Value() }

// shardFor hashes a device ID onto its shard.
func (r *Registry) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return r.shards[h.Sum32()%uint32(len(r.shards))]
}

// Databases lists the registered databases in registration order, each
// at its currently active version.
func (r *Registry) Databases() []NamedDatabase {
	out := make([]NamedDatabase, 0, len(r.names))
	for _, name := range r.names {
		out = append(out, *r.dbs[name].active.Load())
	}
	return out
}

// Register boots a manager for the device into the best feasible
// stored point for its initial specification and adds it to the
// fleet. It fails with ErrDeviceExists on duplicate IDs and
// ErrNoDatabase on unknown database names.
func (r *Registry) Register(p DeviceParams) (*DeviceInfo, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	st, ok := r.dbs[p.Database]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoDatabase, p.Database)
	}
	db := st.active.Load()
	// Build the manager outside the shard lock: boot scans the whole
	// database, and nothing below can fail.
	mgr, err := newManagerOn(db, p, p.Initial)
	if err != nil {
		return nil, err
	}
	d := &device{
		sem: make(chan struct{}, 1),
		id:  p.ID, dbName: p.Database, state: st, params: p, regAt: time.Now(),
	}
	d.db.Store(db)
	d.mgr.Store(mgr)
	// Cold-start cohort inheritance: a device joining a cohort that
	// already published a value table inherits the cohort's learned
	// values in place of the analytic stay-put prior — what its
	// cohort-mates know beats what offline Monte-Carlo would guess. The
	// device is not published yet, so nothing else can touch it.
	r.syncValueTable(d)

	sh := r.shardFor(p.ID)
	sh.mu.Lock()
	if _, dup := sh.devices[p.ID]; dup {
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrDeviceExists, p.ID)
	}
	sh.devices[p.ID] = d
	sh.mu.Unlock()

	r.regTotal.Inc()
	r.devices.Add(1)
	return d.snapshot(), nil
}

// Has reports whether the device is currently registered on this
// node. The cluster router uses it while draining: a device not yet
// handed off keeps being served locally even though the drain ring
// already assigns it elsewhere.
func (r *Registry) Has(id string) bool {
	sh := r.shardFor(id)
	sh.mu.RLock()
	_, ok := sh.devices[id]
	sh.mu.RUnlock()
	return ok
}

// lookup fetches a device under the shard read lock.
func (r *Registry) lookup(id string) (*device, error) {
	sh := r.shardFor(id)
	sh.mu.RLock()
	d, ok := sh.devices[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoDevice, id)
	}
	return d, nil
}

// DecideOutcome is a decision plus how it was produced.
type DecideOutcome struct {
	// Decision is the answer (for Degraded outcomes: stay at the last
	// known-good configuration).
	Decision runtime.Decision
	// Index is the decide index of the database version the decision
	// was made on (nil for degraded answers and imported replays). The
	// registry's exported methods return the plan in Decision.Plan; the
	// HTTP encoders instead take outcomes whose reconfigurations carry
	// no plan and write each plan from Index straight into the
	// response (see plan).
	Index *runtime.Index
	// Replayed reports that the event's sequence number was already
	// decided and the cached decision was returned unchanged.
	Replayed bool
	// Degraded reports that the decision path faulted or missed its
	// deadline and the device fell back to last known-good.
	Degraded bool
}

// Decide reacts to one QoS change for the device and returns the
// decision with its imperative reconfiguration plan. Decisions for
// one device execute one at a time; decisions for distinct devices
// run fully in parallel.
func (r *Registry) Decide(id string, spec runtime.QoSSpec) (runtime.Decision, error) {
	out, err := r.DecideCtx(context.Background(), id, 0, spec)
	return out.Decision, err
}

// DecideCtx is Decide with delivery semantics and fault tolerance.
//
// seq, when positive, is the device's monotonically increasing event
// sequence number: an event equal to the last decided sequence is a
// retry and is answered from the replay cache without re-deciding
// (so at-least-once delivery yields exactly-once decisions), while an
// event behind it fails with ErrStaleSeq. seq 0 bypasses the cache.
//
// If the decision path faults (see SetDecideHook) or ctx expires
// before the device's lock is available, the device degrades: the
// outcome is a stay-put decision at the last known-good configuration,
// flagged Degraded, and the manager state is untouched — a later retry
// of the same sequence number re-decides for real.
func (r *Registry) DecideCtx(ctx context.Context, id string, seq uint64, spec runtime.QoSSpec) (DecideOutcome, error) {
	out, err := r.decideOne(ctx, id, seq, spec)
	out.withPlan()
	return out, err
}

// decideOne is DecideCtx leaving a reconfiguration's plan to the
// caller (see DecideOutcome.Index).
func (r *Registry) decideOne(ctx context.Context, id string, seq uint64, spec runtime.QoSSpec) (DecideOutcome, error) {
	d, err := r.lookup(id)
	if err != nil {
		return DecideOutcome{}, err
	}
	return r.decideOn(ctx, d, seq, spec)
}

// decideOn is decideOne after device resolution: a run of one event
// through decideDevice, the batch path's per-device step.
func (r *Registry) decideOn(ctx context.Context, d *device, seq uint64, spec runtime.QoSSpec) (DecideOutcome, error) {
	events := [1]BatchEvent{{Device: d.id, Seq: seq, Spec: spec}}
	var results [1]BatchOutcome
	r.decideDevice(ctx, d, []int{0}, events[:], results[:])
	return results[0].Out, results[0].Err
}

// plan returns the outcome's reconfiguration plan: the decision's own
// when it carries one, else the transition planned from Index into
// *scratch, which keeps the grown storage for the next outcome. Stays
// and degraded answers have none.
func (o *DecideOutcome) plan(scratch *[]mapping.Action) []mapping.Action {
	d := &o.Decision
	if d.Plan != nil || o.Index == nil || !d.Reconfigured {
		return d.Plan
	}
	*scratch = o.Index.AppendPlan((*scratch)[:0], d.From, d.To)
	return *scratch
}

// withPlan writes the plan a reconfiguration carries no plan for into
// Decision.Plan, sized exactly: the form the exported methods return.
func (o *DecideOutcome) withPlan() {
	d := &o.Decision
	if d.Plan == nil && o.Index != nil && d.Reconfigured {
		d.Plan = o.Index.Plan(d.From, d.To)
	}
}

// decideLocked is the decision core of decideDevice. The caller holds
// the device semaphore — and has already ruled out the removal
// tombstone, which cannot flip while the semaphore is held
// (ExportRemove sets it under the same semaphore) — so one acquisition
// can serve a whole run of events for the device. It never releases
// the semaphore.
func (r *Registry) decideLocked(ctx context.Context, d *device, seq uint64, spec runtime.QoSSpec, tr *obs.Trace, traceID obs.TraceID) (DecideOutcome, error) {
	if seq > 0 && d.haveLast {
		if seq == d.lastSeq {
			d.stats.Replays++
			r.replays.Inc()
			return DecideOutcome{Decision: d.lastDec, Index: d.lastIx, Replayed: true}, nil
		}
		if seq < d.lastSeq {
			return DecideOutcome{}, fmt.Errorf("%w: seq %d behind %d", ErrStaleSeq, seq, d.lastSeq)
		}
	}
	if r.hook != nil {
		if err := r.hook(ctx, d.id, seq); err != nil {
			return r.degrade(d, seq, spec, tr, traceID, err), nil
		}
	}
	// Converge onto the cohort's current active/candidate versions and
	// value table before deciding — the swaps happen here, between
	// decisions, under the semaphore the caller holds.
	r.syncVersion(d)
	r.syncValueTable(d)
	// pprof labels attribute CPU samples under the decide call to the
	// device and stage, so a fleet-wide profile decomposes per device.
	// They are set around the call only; the goroutine then gets the
	// caller's labels back, as pprof.Do would restore them.
	mgr := d.mgr.Load()
	pprof.SetGoroutineLabels(d.labelCtx())
	dec, detail := mgr.Decide(spec, tr)
	pprof.SetGoroutineLabels(ctx)
	d.stats.Decisions++
	d.lastSpec, d.haveSpec = spec, true
	if dec.Reconfigured {
		d.stats.Reconfigs++
		d.stats.TotalDRCMs += dec.Cost.Total()
		d.stats.Migrations += int64(dec.Cost.MigratedTasks)
	}
	if dec.Violated {
		d.stats.Violations++
	}
	if seq > 0 {
		d.lastSeq, d.lastDec, d.lastIx, d.haveLast = seq, dec, mgr.Index(), true
	}
	// Journal before the semaphore is released: a handoff export
	// acquires the semaphore to snapshot, and must see the replay cache
	// and the journal entry of the same decision together (the append
	// itself is lock-free, so the hold grows by well under a
	// microsecond).
	r.journal(d, traceID, seq, spec, tr, dec, detail, false)
	// Dual-serve the event against the candidate version, if one is
	// installed. After the journal append: the shadow never influences
	// the served decision or the flight record.
	r.shadowScore(d, seq, spec, dec)
	// Clear the degraded flag while the semaphore is still held, so a
	// concurrent export's DegradedNow snapshot and this gauge move
	// together (ExportRemove decrements from its snapshot).
	if d.degraded.CompareAndSwap(true, false) {
		r.degradedDev.Add(-1)
	}
	r.decisions.Inc()
	if dec.Reconfigured {
		r.reconfigs.Inc()
	}
	if dec.Violated {
		r.violations.Inc()
	}
	return DecideOutcome{Decision: dec, Index: mgr.Index()}, nil
}

// degrade builds the last-known-good fallback outcome for a decision
// path that faulted with err, and accounts for it. It must not assume
// the device semaphore is held.
func (r *Registry) degrade(d *device, seq uint64, spec runtime.QoSSpec, tr *obs.Trace, traceID obs.TraceID, err error) DecideOutcome {
	cur := d.mgr.Load().Current()
	d.degradedN.Add(1)
	if d.degraded.CompareAndSwap(false, true) {
		r.degradedDev.Add(1)
	}
	r.degradedTot.Inc()
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		r.timeouts.Inc()
	}
	dec := runtime.Decision{From: cur, To: cur}
	r.journal(d, traceID, seq, spec, tr, dec, runtime.DecisionDetail{}, true)
	return DecideOutcome{
		Decision: dec,
		Degraded: true,
	}
}

// journalEntry is a journal entry with room for the decide path's
// spans, one per stage of obs.Stages, so an entry and its spans are one
// allocation.
type journalEntry struct {
	obs.Entry
	spans [4]obs.Span
}

// journal explains one decision into the device's shard journal and
// feeds the stage histograms. Replays are not journaled — the journal
// explains decisions, and a replay repeats one — so for any (device,
// seq) exactly one non-degraded entry exists, plus one degraded entry
// per faulted attempt.
func (r *Registry) journal(d *device, traceID obs.TraceID, seq uint64, spec runtime.QoSSpec, tr *obs.Trace, dec runtime.Decision, detail runtime.DecisionDetail, degraded bool) {
	je := &journalEntry{}
	je.Entry = obs.Entry{
		TraceID:      traceID,
		Device:       d.id,
		Seq:          seq,
		UnixNanos:    r.clock().UnixNano(),
		From:         dec.From,
		To:           dec.To,
		Reconfigured: dec.Reconfigured,
		Violated:     dec.Violated,
		Degraded:     degraded,
		Candidates:   detail.Candidates,
		Infeasible:   detail.Infeasible,
		Score:        detail.Score,
		DRCMs:        dec.Cost.Total(),
		DBVersion:    d.db.Load().DB.Version,
		VTVersion:    d.vtVersion.Load(),
		SpecSMaxMs:   spec.SMaxMs,
		SpecFMin:     spec.FMin,
	}
	e := &je.Entry
	if spans := tr.Spans(); len(spans) > 0 {
		e.Stages = append(je.spans[:0], spans...)
	}
	r.shardFor(d.id).journal.Append(e)
	for _, s := range e.Stages {
		if h, ok := r.stageLat[s.Name]; ok {
			h.Observe(s.Seconds)
		}
	}
	r.explained.Inc()
}

// Decisions snapshots the journaled decisions across every shard,
// oldest first, optionally filtered to one device. limit > 0 keeps
// only the newest limit entries after filtering. The snapshot is
// lock-free and safe under live traffic.
func (r *Registry) Decisions(device string, limit int) []obs.Entry {
	var out []obs.Entry
	if device != "" {
		out = r.shardFor(device).journal.Snapshot()
		kept := out[:0]
		for _, e := range out {
			if e.Device == device {
				kept = append(kept, e)
			}
		}
		out = kept
	} else {
		for _, sh := range r.shards {
			out = append(out, sh.journal.Snapshot()...)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].UnixNanos != out[j].UnixNanos {
			return out[i].UnixNanos < out[j].UnixNanos
		}
		if out[i].Device != out[j].Device {
			return out[i].Device < out[j].Device
		}
		return out[i].Seq < out[j].Seq
	})
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// DecisionsForDatabase snapshots the journaled decisions of the
// devices currently registered against the named database cohort,
// oldest first — the observation stream the Continuous-ReD worker
// folds into its empirical event distribution. Entries of devices that
// have since deregistered or moved off this node are not included.
func (r *Registry) DecisionsForDatabase(name string, limit int) []obs.Entry {
	member := make(map[string]bool)
	for _, sh := range r.shards {
		sh.mu.RLock()
		for id, d := range sh.devices {
			if d.dbName == name {
				member[id] = true
			}
		}
		sh.mu.RUnlock()
	}
	out := r.Decisions("", 0)
	kept := out[:0]
	for _, e := range out {
		if member[e.Device] {
			kept = append(kept, e)
		}
	}
	out = kept
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// Get returns a snapshot of the device's current point and cumulative
// stats.
func (r *Registry) Get(id string) (*DeviceInfo, error) {
	d, err := r.lookup(id)
	if err != nil {
		return nil, err
	}
	return d.snapshot(), nil
}

// Remove deregisters the device.
func (r *Registry) Remove(id string) error {
	sh := r.shardFor(id)
	sh.mu.Lock()
	d, ok := sh.devices[id]
	if ok {
		delete(sh.devices, id)
	}
	sh.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoDevice, id)
	}
	r.devices.Add(-1)
	if d.degraded.Load() {
		r.degradedDev.Add(-1)
	}
	return nil
}

// Len returns the number of registered devices.
func (r *Registry) Len() int {
	n := 0
	for _, sh := range r.shards {
		sh.mu.RLock()
		n += len(sh.devices)
		sh.mu.RUnlock()
	}
	return n
}

func (d *device) snapshot() *DeviceInfo {
	d.sem <- struct{}{}
	stats := d.stats
	d.release()
	stats.Degraded = d.degradedN.Load()
	pt := d.mgr.Load().CurrentPoint()
	return &DeviceInfo{
		ID:           d.id,
		Database:     d.dbName,
		Point:        pt.ID,
		MakespanMs:   pt.MakespanMs,
		Reliability:  pt.Reliability,
		EnergyMJ:     pt.EnergyMJ,
		Stats:        stats,
		RegisteredAt: d.regAt,
	}
}
