package control

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// TestLoopRun pins Run's contract: steps fire on the ticker, a failing
// step is logged and the loop keeps stepping, and cancelling the
// context makes Run return.
func TestLoopRun(t *testing.T) {
	// Only the Run goroutine writes logs; the test reads them after Run
	// has returned.
	var logs bytes.Buffer
	l := &Loop{Interval: time.Millisecond, Logger: slog.New(slog.NewTextHandler(&logs, nil))}
	steps := make(chan int)
	n := 0
	act := func(ctx context.Context) error {
		n++
		select {
		case steps <- n:
		case <-ctx.Done():
		}
		if n == 1 {
			return errors.New("boom")
		}
		return nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		l.Run(ctx, "test", "db", act)
		close(done)
	}()
	for want := 1; want <= 3; want++ {
		select {
		case got := <-steps:
			if got != want {
				t.Fatalf("step %d arrived as step %d", want, got)
			}
		case <-time.After(10 * time.Second):
			cancel()
			t.Fatalf("step %d never fired", want)
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after its context was cancelled")
	}
	if got := logs.String(); strings.Count(got, "test: step failed") != 1 || !strings.Contains(got, "err=boom") {
		t.Errorf("want exactly one logged step failure with its error, got:\n%s", got)
	}
}
