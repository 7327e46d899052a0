package cohort

// The background cohort-learning loop. A Worker drives one database
// cohort through the publish cycle:
//
//	window filling --boundary--> aggregate --changed+agree--> publish
//	                                  |
//	                                  +------unchanged-------> wait
//
// Each Step is one publish attempt: it counts the cohort's eligible
// journaled decisions against the deterministic epoch schedule and,
// once the next epoch's boundary is crossed, folds the journal into an
// aggregated value table and publishes it as the next table version.
// Publishing itself lives in the fleet registry; the worker only
// decides when to invoke it — the same division of labour as
// evolve.Worker, and the same control.Loop for the ticker, the cluster
// catch-up and the agreement gate.

import (
	"context"
	"errors"

	"clrdse/internal/control"
	"clrdse/internal/dse"
	"clrdse/internal/fleet"
	"clrdse/internal/obs"
	"clrdse/internal/runtime"
)

// Registry is the slice of *fleet.Registry the worker drives. An
// interface so tests can script cohort state without a full fleet.
type Registry interface {
	ActiveSnapshot(name string) (db *dse.Database, fp uint64, err error)
	DecisionsForDatabase(name string, limit int) []obs.Entry
	PublishValueTable(name string, t *runtime.ValueTable) error
	ValueTableStatus(name string) (fleet.ValueTableStatus, error)
}

// Worker periodically aggregates and publishes one cohort's value
// table. Its Loop supplies Interval, Logger and the cluster hooks:
// Agreement gates publishing (cluster.Node.VTablesAgree), Reconcile
// adopts a peer's table (cluster.Node.CatchUpVTables).
type Worker struct {
	control.Loop
	// Registry is the fleet being served; Database names the cohort.
	Registry Registry
	Database string
	// Gamma is the discount factor the cohort learns under; devices
	// whose agents run a different gamma ignore the published tables.
	Gamma float64
	// MeanInterArrivalCycles calibrates the replayed episode clock
	// (0 selects the paper's 100); it must match the devices' own
	// calibration for the aggregate to mean the same thing.
	MeanInterArrivalCycles float64
	// Schedule is the deterministic epoch clock gating publishes.
	Schedule Schedule
	// MinDevices is how many devices must have contributed eligible
	// decisions before a table is published (0 selects 1).
	MinDevices int
}

func (w *Worker) minDevices() int {
	if w.MinDevices <= 0 {
		return 1
	}
	return w.MinDevices
}

// Step attempts one publish for the cohort. Expected non-publishes
// (epoch window still filling, too few contributing devices,
// aggregate unchanged since the last publish, cluster not yet in
// agreement) return a nil error.
func (w *Worker) Step(ctx context.Context) error {
	return w.Loop.Step(ctx, "cohort", w.Database, w.act)
}

// Run steps the worker every Interval until ctx is cancelled.
func (w *Worker) Run(ctx context.Context) {
	w.Loop.Run(ctx, "cohort", w.Database, w.act)
}

func (w *Worker) act(ctx context.Context) error {
	st, err := w.Registry.ValueTableStatus(w.Database)
	if err != nil {
		return err
	}
	db, fp, err := w.Registry.ActiveSnapshot(w.Database)
	if err != nil {
		return err
	}
	entries := w.Registry.DecisionsForDatabase(w.Database, 0)
	eligible := EligibleEvents(entries, db.Version, db.Len())
	nextEpoch := st.Epoch + 1
	if boundary := w.Schedule.Boundary(nextEpoch); eligible < boundary {
		return nil // epoch window still filling
	}
	table, err := Aggregate(AggregateParams{
		DB:                     db,
		DBFingerprint:          fp,
		Gamma:                  w.Gamma,
		MeanInterArrivalCycles: w.MeanInterArrivalCycles,
	}, entries)
	if errors.Is(err, ErrNoEvidence) {
		return nil // all journaled decisions predate the active version
	}
	if err != nil {
		return err
	}
	if table.Devices < w.minDevices() {
		w.Log().DebugContext(ctx, "cohort: too few contributing devices",
			"db", w.Database, "devices", table.Devices, "min", w.minDevices())
		return nil
	}
	table.Version = st.Version + 1
	table.Epoch = nextEpoch
	if st.HasTable && table.Fingerprint() == st.Fingerprint {
		// Same content as the active table: nothing worth a version
		// bump. The epoch stays open until the aggregate moves.
		w.Log().DebugContext(ctx, "cohort: aggregate unchanged", "db", w.Database, "version", st.Version)
		return nil
	}
	if !w.Gate(ctx, "cohort", w.Database, "version", table.Version) {
		return nil
	}
	if err := w.Registry.PublishValueTable(w.Database, table); err != nil {
		// A concurrent publish (another worker, a cluster adoption) can
		// outdate the version between status and install; the next tick
		// re-aggregates against the new state. A database swap between
		// snapshot and publish surfaces as skew the same way.
		if errors.Is(err, fleet.ErrValueTableVersion) || errors.Is(err, fleet.ErrValueTableSkew) {
			w.Log().InfoContext(ctx, "cohort: publish outdated by concurrent change", "db", w.Database, "err", err)
			return nil
		}
		return err
	}
	w.Log().InfoContext(ctx, "cohort: value table published",
		"db", w.Database, "version", table.Version, "epoch", table.Epoch,
		"devices", table.Devices, "events", table.Events)
	return nil
}
