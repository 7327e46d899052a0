package fleet

// Per-device state handoff for the cluster layer: when the
// consistent-hash ring moves a device to another node, its owner
// exports a DeviceState bundle — registration parameters, decision
// journal, exactly-once replay cache — and the new owner imports it by
// replaying the journal through a freshly booted manager. Replay (not
// snapshot copy) is the restore mechanism: each journal entry advances
// the manager exactly as the original decision did, so the migrated
// device keeps deciding byte-identically and never answers a sequence
// number twice.

import (
	"fmt"
	"sort"
	"time"

	"clrdse/internal/obs"
	"clrdse/internal/runtime"
)

// DeviceState is one device's complete serving state, the unit of
// cluster handoff. It is a node-to-node wire type (JSON), not part of
// the public v1 device API.
type DeviceState struct {
	// Params is the device's original registration.
	Params DeviceParams `json:"params"`
	// Point is the stored design-point ID in force; Events is the
	// manager's processed-event count (the AuRA episode clock).
	Point  int `json:"point"`
	Events int `json:"events"`
	// DBVersion is the database version the device was serving from
	// when exported (Point is only meaningful within it). The importer
	// must be active on the same version — the cluster agrees on
	// versions before cutover — or the import fails with ErrVersionSkew
	// and the exporter keeps the device.
	DBVersion uint64 `json:"db_version,omitempty"`
	// DBFingerprint is the content fingerprint of that database (see
	// NamedDatabase.Fingerprint). Version numbers alone cannot
	// distinguish two databases independently evolved to the same
	// number on different nodes, so the importer requires the
	// fingerprint to match its active database too. Zero marks a
	// bundle from a build without fingerprints (version check only).
	DBFingerprint uint64 `json:"db_fingerprint,omitempty"`
	// LastSpec/HaveSpec carry the device's most recent observed QoS
	// specification — the boot spec for managers rebuilt by a later
	// version migration on the importing node.
	LastSpec runtime.QoSSpec `json:"last_spec"`
	HaveSpec bool            `json:"have_spec,omitempty"`
	// Stats is the cumulative decision history (Degraded included).
	Stats DeviceStats `json:"stats"`
	// DegradedNow marks a device whose latest answer was degraded, so
	// the importing node's degraded-device gauge and /readyz fraction
	// stay truthful across the move.
	DegradedNow bool `json:"degraded_now,omitempty"`
	// RegisteredAt is the original registration instant.
	RegisteredAt time.Time `json:"registered_at"`
	// LastSeq/LastDec/HaveLast are the exactly-once replay cache: a
	// retry of LastSeq after the move is answered from here, unchanged.
	LastSeq  uint64            `json:"last_seq"`
	HaveLast bool              `json:"have_last"`
	LastDec  *runtime.Decision `json:"last_dec,omitempty"`
	// Journal is the device's decision history from the exporting
	// node's journal, oldest first. The importer replays it to rebuild
	// manager state and adopts the entries into its own journal, so
	// the flight record follows the device across the ring.
	Journal []obs.Entry `json:"journal,omitempty"`
}

// DeviceIDs lists every registered device ID, sorted.
func (r *Registry) DeviceIDs() []string {
	var out []string
	for _, sh := range r.shards {
		sh.mu.RLock()
		for id := range sh.devices {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// exportState snapshots the device's full state. The device semaphore
// is held for the snapshot — including the degraded atomics, which a
// concurrent degrade() can bump without the semaphore — so the replay
// cache, stats, manager state, journal and degraded accounting are
// mutually consistent (the decide path journals and clears the
// degraded flag before releasing the semaphore). With tombstone set
// the device is additionally marked removed while the semaphore is
// still held: a decide that resolved the device before it was
// unpublished then fails with ErrNoDevice after its acquire instead
// of committing to the orphaned object behind the export's back.
func (r *Registry) exportState(d *device, tombstone bool) *DeviceState {
	d.sem <- struct{}{}
	// Converge onto the cohort's active version before snapshotting:
	// devices migrate lazily (syncVersion otherwise runs only on the
	// decide path), so a device that has not decided since a cutover
	// would export a bundle stamped with the displaced version — which
	// no peer on the new version, nor this node's own re-import
	// fallback, could accept, dropping the device's state entirely.
	// Syncing under the held semaphore makes the bundle's version the
	// cohort's active version by construction.
	r.syncVersion(d)
	db := d.db.Load()
	st := &DeviceState{
		Params:        d.params,
		Stats:         d.stats,
		RegisteredAt:  d.regAt,
		LastSeq:       d.lastSeq,
		HaveLast:      d.haveLast,
		LastSpec:      d.lastSpec,
		HaveSpec:      d.haveSpec,
		DBVersion:     db.DB.Version,
		DBFingerprint: db.fp,
	}
	if d.haveLast {
		// The bundle carries the cached decision's plan, planned from the
		// version that decided it: the importer may serve another.
		last := DecideOutcome{Decision: d.lastDec, Index: d.lastIx}
		last.withPlan()
		st.LastDec = &last.Decision
	}
	mgr := d.mgr.Load()
	st.Point = mgr.Current()
	st.Events = mgr.Events()
	for _, e := range r.shardFor(d.id).journal.Snapshot() {
		if e.Device == d.id {
			st.Journal = append(st.Journal, e)
		}
	}
	st.Stats.Degraded = d.degradedN.Load()
	st.DegradedNow = d.degraded.Load()
	if tombstone {
		d.removed.Store(true)
	}
	d.release()
	return st
}

// ExportDevice snapshots the device's handoff bundle without removing
// it — the read side of replication and diagnostics.
func (r *Registry) ExportDevice(id string) (*DeviceState, error) {
	d, err := r.lookup(id)
	if err != nil {
		return nil, err
	}
	return r.exportState(d, false), nil
}

// ExportRemove atomically deregisters the device and returns its
// handoff bundle. The device is unpublished from the registry before
// the snapshot, the snapshot waits for any in-flight decision to
// finish, and the orphaned object is tombstoned so a decide that
// resolved it before the unpublish fails with ErrNoDevice instead of
// committing after the export — the bundle therefore reflects every
// decision this node ever acknowledged for the device, and no later
// ones exist.
func (r *Registry) ExportRemove(id string) (*DeviceState, error) {
	sh := r.shardFor(id)
	sh.mu.Lock()
	d, ok := sh.devices[id]
	if ok {
		delete(sh.devices, id)
	}
	sh.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoDevice, id)
	}
	st := r.exportState(d, true)
	r.devices.Add(-1)
	// Decrement from the bundle's own snapshot, not a re-read of the
	// atomic: a degrade racing the export cannot skew the gauge away
	// from what the importer will add back.
	if st.DegradedNow {
		r.degradedDev.Add(-1)
	}
	return st, nil
}

// ImportDevice installs a migrated device from its handoff bundle.
// The manager is booted fresh on the importer's active database —
// which must be the version the bundle was exported at (ErrVersionSkew
// otherwise; Point and the journal's transitions are only meaningful
// within one version) — the journal is replayed through it (each
// non-degraded same-version entry re-applies its transition and
// re-teaches the agent the recorded reward), and the snapshot
// point/event-clock then corrects for any history the exporting
// journal's ring had already overwritten. The replay cache and journal
// entries are adopted as-is, so a retried sequence number is answered
// from the cache and the device's whole decision history remains
// explainable from this node's /debug/decisions.
func (r *Registry) ImportDevice(st *DeviceState) error {
	if st == nil {
		return fmt.Errorf("fleet: nil device state")
	}
	p := st.Params
	if err := p.validate(); err != nil {
		return err
	}
	dbst, ok := r.dbs[p.Database]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoDatabase, p.Database)
	}
	db := dbst.active.Load()
	if st.DBVersion != db.DB.Version {
		return fmt.Errorf("%w: %q bundle v%d, active v%d", ErrVersionSkew, p.ID, st.DBVersion, db.DB.Version)
	}
	if st.DBFingerprint != 0 && st.DBFingerprint != db.fp {
		// Same version number, different content: the exporting node
		// evolved a divergent database to this number. Replaying the
		// bundle's point IDs against this database would silently
		// corrupt the migrated state.
		return fmt.Errorf("%w: %q bundle fingerprint %016x, active %016x at v%d",
			ErrVersionSkew, p.ID, st.DBFingerprint, db.fp, db.DB.Version)
	}
	mgr, err := newManagerOn(db, p, p.Initial)
	if err != nil {
		return err
	}
	for _, e := range st.Journal {
		if e.Degraded || e.DBVersion != st.DBVersion {
			// Degraded answers never advanced manager state; entries
			// decided under an earlier database version reference point
			// IDs that do not exist in this one — the Restore below
			// lands the device on its snapshot state regardless.
			continue
		}
		if err := mgr.Replay(e.To, e.DRCMs); err != nil {
			return fmt.Errorf("fleet: import %q: journal replay: %w", p.ID, err)
		}
	}
	if err := mgr.Restore(st.Point, st.Events); err != nil {
		return fmt.Errorf("fleet: import %q: %w", p.ID, err)
	}
	d := &device{
		sem: make(chan struct{}, 1),
		id:  p.ID, dbName: p.Database, state: dbst,
		params: p,
		stats:  st.Stats,
		regAt:  st.RegisteredAt,
	}
	d.db.Store(db)
	d.mgr.Store(mgr)
	d.lastSpec, d.haveSpec = st.LastSpec, st.HaveSpec
	d.lastSeq, d.haveLast = st.LastSeq, st.HaveLast
	if st.LastDec != nil {
		d.lastDec = *st.LastDec
	}
	d.degradedN.Store(st.Stats.Degraded)
	if st.DegradedNow {
		d.degraded.Store(true)
	}

	sh := r.shardFor(p.ID)
	sh.mu.Lock()
	if _, dup := sh.devices[p.ID]; dup {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrDeviceExists, p.ID)
	}
	sh.devices[p.ID] = d
	sh.mu.Unlock()

	// Adopt the travelled journal entries verbatim: they were already
	// counted as explained decisions on the node that decided them, so
	// they bypass the explained counter and stage histograms here.
	for i := range st.Journal {
		e := st.Journal[i]
		sh.journal.Append(&e)
	}
	r.devices.Add(1)
	if st.DegradedNow {
		r.degradedDev.Add(1)
	}
	return nil
}
