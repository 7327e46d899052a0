package fleet

// Continuous-ReD serving support: versioned databases with dual-serve
// validation and atomic per-cohort hot swap.
//
// Each registered database name is a cohort. A cohort's state is three
// slots — active, candidate, previous — behind atomic pointers: the
// decide path only ever loads them, so installing a candidate, cutting
// over or rolling back is one pointer flip that never blocks traffic.
// Devices converge lazily: every decision (already holding the device
// semaphore) compares the database its manager was built against with
// the cohort's active slot and migrates itself when they differ, so a
// cutover is atomic at the cohort level (the flip) and per-device
// consistent (the swap happens between two decisions, never inside
// one).
//
// While a candidate is installed the fleet dual-serves: each decision
// is additionally scored against a per-device shadow manager booted on
// the candidate database. The shadow decision is compared with the
// active one by the *configuration* chosen (canonical mapping key, not
// point ID — IDs are version-relative) and counted as agreement or
// divergence. Shadow scoring never influences the served decision, the
// journal or the replay cache; it only feeds the clr_evolve_* metrics
// and the /debug/evolve diff. Once the shadow window shows enough
// agreement the evolve worker cuts the cohort over; the displaced
// version is retained for one-step rollback.
//
// Exactly-once survives every swap: the per-device replay cache is
// keyed by sequence number alone, independent of the database version,
// so a retry of a pre-cutover event is answered with the original
// (old-version) decision byte-for-byte.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"clrdse/internal/dse"
	"clrdse/internal/fleet/metrics"
	"clrdse/internal/runtime"
)

// Evolution errors, distinguished so the HTTP layer and the evolve
// worker can map them onto statuses and retry policy.
var (
	// ErrNoCandidate reports a cutover or drop without an installed
	// candidate database.
	ErrNoCandidate = errors.New("fleet: no candidate database installed")
	// ErrCandidateVersion reports a proposal whose version does not
	// advance the active version.
	ErrCandidateVersion = errors.New("fleet: candidate version must advance the active version")
	// ErrNoPrevious reports a rollback without a retained previous
	// version (rollback is one-step: it cannot be repeated).
	ErrNoPrevious = errors.New("fleet: no previous database version to roll back to")
	// ErrVersionSkew reports a handoff bundle whose database version
	// differs from the importing node's active version — the cluster
	// must agree on the active version before devices move.
	ErrVersionSkew = errors.New("fleet: handoff bundle database version differs from active")
)

// dbState is one cohort's version state. The decide path reads the
// atomic slots without locks; swapMu serialises the swap operations
// (propose, cutover, rollback, drop) against each other.
type dbState struct {
	name   string
	swapMu sync.Mutex
	// active is the database every decision is served from. Never nil.
	active atomic.Pointer[NamedDatabase]
	// candidate, when non-nil, is the proposed next version being
	// shadow-served.
	candidate atomic.Pointer[NamedDatabase]
	// prev is the one-step rollback target, retained by Cutover and
	// consumed by Rollback. Guarded by swapMu.
	prev *NamedDatabase

	// vtActive is the cohort's published value table (nil until the
	// cohort worker first publishes); vtPrev is the one-step rollback
	// target, guarded by swapMu like prev. Devices re-seed their
	// agents lazily per decision (see syncValueTable).
	vtActive atomic.Pointer[runtime.ValueTable]
	vtPrev   *runtime.ValueTable

	// window accumulates the shadow scores judging the currently
	// installed candidate. ProposeDatabase installs a fresh window
	// object together with its candidate, and shadowScore only counts
	// into a window whose cand field matches the candidate it actually
	// scored — so a score racing a re-propose lands in the discarded
	// old window instead of polluting the new candidate's empty one.
	// The window outlives its candidate (cutover and drop leave it in
	// place, frozen) so /debug/evolve keeps showing the last verdict.
	window atomic.Pointer[shadowWindow]

	activeVer *metrics.Gauge
	candVer   *metrics.Gauge
	vtVer     *metrics.Gauge
}

// shadowWindow is the agreement/divergence accounting for exactly one
// candidate database. Tying the counters to the candidate object (not
// the cohort) makes the propose/score race benign: counts can only
// ever land in the window created for the candidate that was scored.
type shadowWindow struct {
	// cand is the candidate this window judges.
	cand *NamedDatabase

	events  atomic.Uint64
	agree   atomic.Uint64
	diverge atomic.Uint64

	// sampleMu guards samples, a small ring of recent divergences for
	// /debug/evolve.
	sampleMu sync.Mutex
	samples  []DivergenceSample
}

// maxDivergenceSamples bounds the per-cohort diff ring exposed on
// /debug/evolve.
const maxDivergenceSamples = 32

// DivergenceSample is one shadow decision that chose a different
// configuration than the active database did.
type DivergenceSample struct {
	Device string `json:"device"`
	Seq    uint64 `json:"seq,omitempty"`
	// ActiveTo/ShadowTo are the chosen point IDs in their respective
	// versions; the versions disambiguate them.
	ActiveTo      int    `json:"active_to"`
	ShadowTo      int    `json:"shadow_to"`
	ActiveVersion uint64 `json:"active_version"`
	ShadowVersion uint64 `json:"shadow_version"`
}

// EvolveStatus is one cohort's version and shadow-window snapshot —
// the body of /debug/evolve and the evolve worker's decision input.
type EvolveStatus struct {
	Database      string `json:"database"`
	ActiveVersion uint64 `json:"active_version"`
	ActivePoints  int    `json:"active_points"`
	// Candidate fields are meaningful only when HasCandidate.
	HasCandidate     bool   `json:"has_candidate"`
	CandidateVersion uint64 `json:"candidate_version,omitempty"`
	CandidatePoints  int    `json:"candidate_points,omitempty"`
	// Previous fields are meaningful only when HasPrevious.
	HasPrevious     bool   `json:"has_previous"`
	PreviousVersion uint64 `json:"previous_version,omitempty"`
	// ActiveFingerprint and CandidateFingerprint are the content
	// fingerprints of the respective databases (see Fingerprint) —
	// what the cluster layer compares, alongside the version numbers,
	// to decide whether two nodes really serve the same database.
	ActiveFingerprint    uint64 `json:"active_fingerprint"`
	CandidateFingerprint uint64 `json:"candidate_fingerprint,omitempty"`
	// Shadow window counters for the current candidate.
	ShadowEvents uint64 `json:"shadow_events"`
	Agreements   uint64 `json:"agreements"`
	Divergences  uint64 `json:"divergences"`
	// Agreement is Agreements/ShadowEvents (0 with an empty window).
	Agreement float64 `json:"agreement"`
	// Samples are the most recent divergences, oldest first.
	Samples []DivergenceSample `json:"samples,omitempty"`
}

func (w *shadowWindow) addSample(s DivergenceSample) {
	w.sampleMu.Lock()
	if len(w.samples) >= maxDivergenceSamples {
		copy(w.samples, w.samples[1:])
		w.samples = w.samples[:len(w.samples)-1]
	}
	w.samples = append(w.samples, s)
	w.sampleMu.Unlock()
}

// newIndex builds one database version's decide index. It is a
// variable so tests can count the builds a swap performs.
var newIndex = runtime.NewIndex

// build precomputes the database's derived read-only state: the
// content identity (see identify) and the decide index every manager
// on this version shares.
func (n *NamedDatabase) build() error {
	n.identify()
	ix, err := newIndex(n.DB, n.Space, nil)
	if err != nil {
		return err
	}
	n.index = ix
	return nil
}

// identify computes the per-point canonical mapping keys (shadow
// agreement and migration remapping compare configurations, not
// version-relative point IDs) and the content fingerprint over both
// keys and metrics — everything but the decide index, so an
// idempotent adopt can be recognised before paying for one.
func (n *NamedDatabase) identify() {
	n.keys = make([]string, n.DB.Len())
	n.keyIdx = make(map[string]int, n.DB.Len())
	h := fnv.New64a()
	var buf [8]byte
	for i, p := range n.DB.Points {
		n.keys[i] = p.M.Key()
		if _, dup := n.keyIdx[n.keys[i]]; !dup {
			n.keyIdx[n.keys[i]] = i
		}
		h.Write([]byte(n.keys[i]))
		h.Write([]byte{0})
		for _, v := range [...]float64{p.MakespanMs, p.Reliability, p.EnergyMJ, p.PeakPowerW, p.MTTFMs} {
			binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	n.fp = h.Sum64()
}

// Fingerprint is the database's content hash: FNV-1a over every stored
// point's canonical mapping key and metric values, in ID order (the
// version number is deliberately excluded — it is compared separately).
// Two NamedDatabases decide identically only if their fingerprints
// match, so the cluster layer requires fingerprint equality — not just
// version-number equality — before treating two nodes as serving the
// same database: each node's evolve worker proposes from its own local
// journal, so two nodes can legitimately hold different databases both
// numbered active+1.
func (n *NamedDatabase) Fingerprint() uint64 { return n.fp }

// ProposeDatabase installs db as the named cohort's candidate version
// and starts a fresh shadow window. The candidate must validate
// against the cohort's mapping space and its Version must advance the
// active version. A candidate already installed is replaced (its
// window discarded). Devices pick the new candidate up lazily on their
// next decision.
func (r *Registry) ProposeDatabase(name string, db *dse.Database) error {
	st, ok := r.dbs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoDatabase, name)
	}
	if db == nil {
		return fmt.Errorf("fleet: propose %q: nil database", name)
	}
	st.swapMu.Lock()
	defer st.swapMu.Unlock()
	active := st.active.Load()
	if db.Version <= active.DB.Version {
		return fmt.Errorf("%w: candidate v%d vs active v%d", ErrCandidateVersion, db.Version, active.DB.Version)
	}
	if err := db.Validate(active.Space); err != nil {
		return fmt.Errorf("fleet: propose %q: %w", name, err)
	}
	cand := &NamedDatabase{Name: name, DB: db, Space: active.Space}
	if err := cand.build(); err != nil {
		return fmt.Errorf("fleet: propose %q: %w", name, err)
	}
	// The fresh window is installed before the candidate it judges: a
	// racing shadowScore can then never observe the new candidate with
	// the old window still in place (scores for the old candidate land
	// in the old window object, which is dropped here with it).
	st.window.Store(&shadowWindow{cand: cand})
	st.candidate.Store(cand)
	st.candVer.Set(int64(db.Version))
	r.evolveProposals.Inc()
	return nil
}

// CutoverDatabase atomically promotes the cohort's candidate to
// active, retaining the displaced version for one-step rollback. The
// flip is a pointer swap: in-flight decisions complete against the
// version they loaded, and every device migrates (adopting its shadow
// manager's already-tracked state) on its next decision.
func (r *Registry) CutoverDatabase(name string) error {
	st, ok := r.dbs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoDatabase, name)
	}
	st.swapMu.Lock()
	defer st.swapMu.Unlock()
	cand := st.candidate.Load()
	if cand == nil {
		return fmt.Errorf("%w: %q", ErrNoCandidate, name)
	}
	st.prev = st.active.Load()
	st.active.Store(cand)
	st.candidate.Store(nil)
	st.activeVer.Set(int64(cand.DB.Version))
	st.candVer.Set(0)
	r.evolveCutovers.Inc()
	return nil
}

// AdoptDatabase installs db as the cohort's active version
// immediately, without shadow validation — the cluster catch-up path.
// Once any node cuts over, every peer's version-agreement check fails
// until it serves the same database; without a way to install the
// winner the cluster would wedge in permanent disagreement, deferring
// all further cutovers and failing every cross-node handoff. A peer
// that observes a node ahead of it therefore fetches that node's
// active database and adopts those exact bytes here.
//
// The adopted version must not be behind the active one; adopting the
// active database itself (same version, same content fingerprint) is
// an idempotent no-op. Equal version with a different fingerprint is
// accepted — the tiebreak for two nodes that independently cut over to
// divergent databases sharing a version number. Any installed
// candidate is dropped (its shadow window judged a proposal that has
// been overtaken), and the displaced active version is retained for
// one-step rollback. Devices converge lazily, exactly as after a
// cutover.
func (r *Registry) AdoptDatabase(name string, db *dse.Database) error {
	st, ok := r.dbs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoDatabase, name)
	}
	if db == nil {
		return fmt.Errorf("fleet: adopt %q: nil database", name)
	}
	st.swapMu.Lock()
	defer st.swapMu.Unlock()
	active := st.active.Load()
	if db.Version < active.DB.Version {
		return fmt.Errorf("%w: adopt v%d behind active v%d", ErrCandidateVersion, db.Version, active.DB.Version)
	}
	if err := db.Validate(active.Space); err != nil {
		return fmt.Errorf("fleet: adopt %q: %w", name, err)
	}
	next := &NamedDatabase{Name: name, DB: db, Space: active.Space}
	next.identify()
	if db.Version == active.DB.Version && next.fp == active.fp {
		return nil // already serving exactly this database
	}
	if err := next.build(); err != nil {
		return fmt.Errorf("fleet: adopt %q: %w", name, err)
	}
	st.prev = active
	st.active.Store(next)
	st.candidate.Store(nil)
	st.activeVer.Set(int64(db.Version))
	st.candVer.Set(0)
	r.evolveAdoptions.Inc()
	return nil
}

// RollbackDatabase reverts the cohort to the version displaced by the
// last cutover. Rollback is one-step — the reverted-from version is
// not retained — and drops any candidate installed since. Devices
// swap back to their retained pre-cutover managers on their next
// decision, so pre-cutover state (including AuRA value functions)
// survives a cutover-then-rollback round trip intact.
func (r *Registry) RollbackDatabase(name string) error {
	st, ok := r.dbs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoDatabase, name)
	}
	st.swapMu.Lock()
	defer st.swapMu.Unlock()
	if st.prev == nil {
		return fmt.Errorf("%w: %q", ErrNoPrevious, name)
	}
	st.candidate.Store(nil)
	st.active.Store(st.prev)
	st.activeVer.Set(int64(st.prev.DB.Version))
	st.candVer.Set(0)
	st.prev = nil
	r.evolveRollbacks.Inc()
	return nil
}

// DropCandidate withdraws the cohort's candidate without a cutover —
// the evolve worker's reject path when the shadow window shows too
// much divergence. Devices discard their shadow managers on their next
// decision.
func (r *Registry) DropCandidate(name string) error {
	st, ok := r.dbs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoDatabase, name)
	}
	st.swapMu.Lock()
	defer st.swapMu.Unlock()
	if st.candidate.Load() == nil {
		return fmt.Errorf("%w: %q", ErrNoCandidate, name)
	}
	st.candidate.Store(nil)
	st.candVer.Set(0)
	r.evolveDropped.Inc()
	return nil
}

// ActiveDatabase returns the cohort's currently served database.
func (r *Registry) ActiveDatabase(name string) (*dse.Database, error) {
	st, ok := r.dbs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoDatabase, name)
	}
	return st.active.Load().DB, nil
}

// ActiveSnapshot returns the cohort's currently served database
// together with its content fingerprint, as one atomic snapshot — the
// read side of the cluster catch-up path, where a version/fingerprint
// pair read across two calls could straddle a concurrent swap.
func (r *Registry) ActiveSnapshot(name string) (*dse.Database, uint64, error) {
	st, ok := r.dbs[name]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrNoDatabase, name)
	}
	n := st.active.Load()
	return n.DB, n.fp, nil
}

// EvolveStatus snapshots one cohort's version and shadow-window state.
func (r *Registry) EvolveStatus(name string) (EvolveStatus, error) {
	st, ok := r.dbs[name]
	if !ok {
		return EvolveStatus{}, fmt.Errorf("%w: %q", ErrNoDatabase, name)
	}
	return st.status(), nil
}

// EvolveStatuses snapshots every cohort, in registration order.
func (r *Registry) EvolveStatuses() []EvolveStatus {
	out := make([]EvolveStatus, 0, len(r.names))
	for _, name := range r.names {
		out = append(out, r.dbs[name].status())
	}
	return out
}

func (st *dbState) status() EvolveStatus {
	st.swapMu.Lock()
	active := st.active.Load()
	cand := st.candidate.Load()
	prev := st.prev
	st.swapMu.Unlock()
	s := EvolveStatus{
		Database:          st.name,
		ActiveVersion:     active.DB.Version,
		ActivePoints:      active.DB.Len(),
		ActiveFingerprint: active.fp,
	}
	if cand != nil {
		s.HasCandidate = true
		s.CandidateVersion = cand.DB.Version
		s.CandidatePoints = cand.DB.Len()
		s.CandidateFingerprint = cand.fp
	}
	if prev != nil {
		s.HasPrevious = true
		s.PreviousVersion = prev.DB.Version
	}
	if win := st.window.Load(); win != nil {
		s.ShadowEvents = win.events.Load()
		s.Agreements = win.agree.Load()
		s.Divergences = win.diverge.Load()
		win.sampleMu.Lock()
		s.Samples = append([]DivergenceSample(nil), win.samples...)
		win.sampleMu.Unlock()
	}
	if s.ShadowEvents > 0 {
		s.Agreement = float64(s.Agreements) / float64(s.ShadowEvents)
	}
	return s
}

// newManagerOn boots a fresh manager for the device parameters against
// the given database version.
func newManagerOn(n *NamedDatabase, p DeviceParams, boot runtime.QoSSpec) (*runtime.Manager, error) {
	mp := runtime.ManagerParams{
		Index:                  n.index,
		PRC:                    p.PRC,
		Trigger:                p.Trigger,
		Policy:                 p.Policy,
		MeanInterArrivalCycles: p.MeanInterArrivalCycles,
	}
	if p.Gamma > 0 || p.WithAgent {
		mp.Agent = runtime.NewAgentForDB(n.DB, p.Gamma, 0)
	}
	return runtime.NewManager(mp, boot)
}

// bootSpec is the specification a version migration boots replacement
// managers with: the device's last observed spec when one exists (its
// empirical operating point), the registration spec otherwise. Callers
// hold the device semaphore.
func (d *device) bootSpec() runtime.QoSSpec {
	if d.haveSpec {
		return d.lastSpec
	}
	return d.params.Initial
}

// managerTracking boots a manager on n and aligns it with the device's
// current trajectory: the configuration in force is remapped into n by
// its canonical mapping key (version-independent), and the event clock
// is carried over. When the current configuration does not exist in n
// the manager keeps its boot choice for the device's operating spec —
// the closest n offers. An AuRA agent starts from n's stay-put prior;
// cross-version value transfer is undefined (the point sets differ).
// Callers hold the device semaphore.
func (d *device) managerTracking(n *NamedDatabase) (*runtime.Manager, error) {
	mgr, err := newManagerOn(n, d.params, d.bootSpec())
	if err != nil {
		return nil, err
	}
	old := d.mgr.Load()
	cur := mgr.Current()
	if idx, ok := n.keyIdx[d.db.Load().keys[old.Current()]]; ok {
		cur = idx
	}
	if err := mgr.Restore(cur, old.Events()); err != nil {
		return nil, err
	}
	return mgr, nil
}

// syncVersion converges the device onto its cohort's current active
// and candidate versions. The caller holds the device semaphore, so
// the manager swaps happen between decisions, never inside one. It
// never fails the decision: if a replacement manager cannot be built
// (which requires an invalid database, excluded by ProposeDatabase)
// the device keeps serving its current version — journal stamps stay
// truthful — and retries on its next decision.
func (r *Registry) syncVersion(d *device) {
	active := d.state.active.Load()
	if d.db.Load() != active {
		switch {
		case d.shadowDB == active:
			// Cutover to the candidate this device was shadowing: adopt
			// the shadow manager, whose state already tracks every
			// shadowed event, and retain the displaced manager for
			// rollback.
			d.prevMgr, d.prevDB = d.mgr.Load(), d.db.Load()
			d.mgr.Store(d.shadow)
			d.db.Store(d.shadowDB)
			d.shadow, d.shadowDB = nil, nil
		case d.prevDB == active:
			// One-step rollback: resume the retained pre-cutover
			// manager exactly where the cutover left it.
			d.mgr.Store(d.prevMgr)
			d.db.Store(d.prevDB)
			d.prevMgr, d.prevDB = nil, nil
			d.shadow, d.shadowDB = nil, nil
		default:
			// The active version changed while this device held neither
			// a matching shadow nor a matching previous manager (it
			// registered or was imported across the swap): rebuild
			// against the active version, tracking the current
			// configuration by mapping key.
			if mgr, err := d.managerTracking(active); err == nil {
				d.prevMgr, d.prevDB = d.mgr.Load(), d.db.Load()
				d.mgr.Store(mgr)
				d.db.Store(active)
				d.shadow, d.shadowDB = nil, nil
			}
		}
	}
	cand := d.state.candidate.Load()
	switch {
	case cand == nil:
		d.shadow, d.shadowDB = nil, nil
	case d.shadowDB != cand:
		if mgr, err := d.managerTracking(cand); err == nil {
			d.shadow, d.shadowDB = mgr, cand
		} else {
			d.shadow, d.shadowDB = nil, nil
		}
	}
}

// shadowScore dual-serves one decided event against the device's
// shadow manager and accounts agreement or divergence. It runs under
// the device semaphore, after the real decision committed; the shadow
// decision is compared by chosen configuration (mapping key) and is
// never served, journaled or cached — so it decides through
// Manager.Advance, which builds neither the plan nor the cost
// decomposition a served decision carries.
//
// For agentless (uRA) devices the shadow decision is a pure function
// of (current shadow point, spec), so a one-entry memo short-circuits
// the common repeated-spec case: the cached choice is replayed, which
// advances the shadow's event clock exactly as a full decision would.
// An AuRA shadow (Gamma > 0) never uses the memo — its learned values
// feed the scoring, so identical inputs may choose differently.
func (r *Registry) shadowScore(d *device, seq uint64, spec runtime.QoSSpec, dec runtime.Decision) {
	if d.shadow == nil {
		return
	}
	cand := d.shadowDB
	cur := d.shadow.Current()
	var shadowTo int
	if d.params.Gamma == 0 && d.memoMgr == d.shadow && d.memoFrom == cur && d.memoSpec == spec {
		shadowTo = d.memoTo
		if err := d.shadow.Replay(shadowTo, 0); err != nil {
			// Unreachable for a memo recorded against this manager;
			// fall back to a full decision if it ever happens.
			shadowTo = d.shadow.Advance(spec)
		}
	} else {
		shadowTo = d.shadow.Advance(spec)
		d.memoMgr, d.memoFrom, d.memoSpec, d.memoTo = d.shadow, cur, spec, shadowTo
	}
	st := d.state
	// Count only into the window created for the candidate this score
	// judged: the window pointer keys the counters to one candidate, so
	// a re-propose racing this score can at worst send the counts into
	// the discarded old window — never into the new candidate's fresh
	// one. The candidate check keeps a withdrawn candidate's frozen
	// window from accumulating further (devices drop their shadow
	// managers on their next decision anyway).
	win := st.window.Load()
	if win == nil || win.cand != cand || st.candidate.Load() != cand {
		return
	}
	win.events.Add(1)
	r.evolveShadowEvents.Inc()
	db := d.db.Load()
	if cand.keys[shadowTo] == db.keys[dec.To] {
		win.agree.Add(1)
		r.evolveShadowAgree.Inc()
		return
	}
	win.diverge.Add(1)
	r.evolveShadowDiverge.Inc()
	win.addSample(DivergenceSample{
		Device:        d.id,
		Seq:           seq,
		ActiveTo:      dec.To,
		ShadowTo:      shadowTo,
		ActiveVersion: db.DB.Version,
		ShadowVersion: cand.DB.Version,
	})
}
