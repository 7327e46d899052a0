// Package control holds the loop shared by the background workers that
// change what a cohort serves: evolve.Worker (database versions) and
// cohort.Worker (value tables). Each worker embeds a Loop and supplies
// only its act step; the Loop owns what the two have in common — the
// ticker, catching up with the cluster before acting, and the cluster
// agreement gate the act step consults before it changes anything.
package control

import (
	"context"
	"log/slog"
	"time"
)

// Loop paces a worker and connects it to the cluster. The zero value
// runs standalone: no gate, no catch-up, one step a minute.
type Loop struct {
	// Interval is the tick period of Run (0 selects 1 minute).
	Interval time.Duration
	// Agreement, when non-nil, gates the worker's change on external
	// consensus — the cluster layer's "every alive peer holds the same
	// (version, fingerprint)" check. Returning false defers the change
	// to a later tick; an error is logged and also defers.
	Agreement func(ctx context.Context, database string) (bool, error)
	// Reconcile, when non-nil, runs first on every Step — the cluster
	// layer's catch-up hook: changes are not atomic across nodes, so a
	// peer can change first, after which this node's Agreement stays
	// false forever unless it adopts the winner's artifact. Reconcile
	// returning true means an artifact was adopted; the step then ends
	// (the cohort just changed under the worker) and the next tick
	// resumes from the adopted version. An error is logged, never fatal.
	Reconcile func(ctx context.Context, database string) (bool, error)
	// Logger receives state-transition lines (nil selects the default).
	Logger *slog.Logger
}

// Log returns the loop's logger.
func (l *Loop) Log() *slog.Logger {
	if l.Logger != nil {
		return l.Logger
	}
	return slog.Default()
}

// Step runs one step for the cohort: Reconcile, then act unless
// Reconcile adopted an artifact. kind prefixes the log lines.
func (l *Loop) Step(ctx context.Context, kind, database string, act func(context.Context) error) error {
	if l.Reconcile != nil {
		adopted, err := l.Reconcile(ctx, database)
		switch {
		case err != nil:
			l.Log().WarnContext(ctx, kind+": catch-up failed", "db", database, "err", err)
		case adopted:
			l.Log().InfoContext(ctx, kind+": adopted a peer's state; resuming from it next tick", "db", database)
			return nil
		}
	}
	return act(ctx)
}

// Gate reports whether the act step may change the cohort now: always
// without an Agreement hook, otherwise only once the cluster agrees.
// A deferral is logged with attrs.
func (l *Loop) Gate(ctx context.Context, kind, database string, attrs ...any) bool {
	if l.Agreement == nil {
		return true
	}
	ok, err := l.Agreement(ctx, database)
	if err != nil {
		l.Log().WarnContext(ctx, kind+": cluster agreement check failed; deferring", "db", database, "err", err)
		return false
	}
	if !ok {
		l.Log().InfoContext(ctx, kind+": cluster not in agreement; deferring",
			append([]any{"db", database}, attrs...)...)
	}
	return ok
}

// Run calls Step every Interval until ctx is cancelled. Step errors
// are logged, never fatal: the loop is a background optimiser, and
// serving must not depend on it.
func (l *Loop) Run(ctx context.Context, kind, database string, act func(context.Context) error) {
	interval := l.Interval
	if interval <= 0 {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := l.Step(ctx, kind, database, act); err != nil {
				l.Log().WarnContext(ctx, kind+": step failed", "db", database, "err", err)
			}
		}
	}
}
