package obs

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestTraceIDValidation(t *testing.T) {
	cases := []struct {
		in string
		ok bool
	}{
		{"0123456789abcdef", true},
		{"ffffffffffffffff", true},
		{"", false},
		{"0123456789abcde", false},   // short
		{"0123456789abcdef0", false}, // long
		{"0123456789ABCDEF", false},  // uppercase
		{"0123456789abcdeg", false},  // non-hex
		{"0123 56789abcdef", false},  // space
	}
	for _, c := range cases {
		id, err := ParseTraceID(c.in)
		if c.ok && (err != nil || id != TraceID(c.in)) {
			t.Errorf("ParseTraceID(%q) = %q, %v; want ok", c.in, id, err)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseTraceID(%q) accepted; want error", c.in)
		}
	}
}

func TestMinterDeterministicAndDistinct(t *testing.T) {
	a, b := NewMinter(42), NewMinter(42)
	seen := make(map[TraceID]bool)
	for i := 0; i < 100; i++ {
		ida, idb := a.Mint(), b.Mint()
		if ida != idb {
			t.Fatalf("mint %d: same seed diverged: %q vs %q", i, ida, idb)
		}
		if !ida.IsValid() {
			t.Fatalf("mint %d: invalid ID %q", i, ida)
		}
		if seen[ida] {
			t.Fatalf("mint %d: duplicate ID %q", i, ida)
		}
		seen[ida] = true
	}
	if other := NewMinter(43).Mint(); seen[other] {
		t.Errorf("different seed repeated an ID: %q", other)
	}
}

func TestContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if id := TraceIDFrom(ctx); id != "" {
		t.Fatalf("empty context has trace ID %q", id)
	}
	want := NewMinter(1).Mint()
	ctx = WithTrace(ctx, want)
	if got := TraceIDFrom(ctx); got != want {
		t.Fatalf("TraceIDFrom = %q, want %q", got, want)
	}
}

// fakeClock ticks a fixed step per reading, so span durations are
// exact and the test needs no sleeping.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func TestTraceSpans(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0), step: time.Millisecond}
	tr := NewTrace("0123456789abcdef", clk.now)
	if tr.ID() != "0123456789abcdef" {
		t.Fatalf("ID = %q", tr.ID())
	}
	end := tr.Stage(StageFilter)
	end()
	func() {
		defer tr.Stage(StageScore)()
	}()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2: %+v", len(spans), spans)
	}
	for i, name := range []string{StageFilter, StageScore} {
		if spans[i].Name != name {
			t.Errorf("span %d = %q, want %q", i, spans[i].Name, name)
		}
		if spans[i].Seconds != 0.001 {
			t.Errorf("span %q = %v s, want 0.001", name, spans[i].Seconds)
		}
	}
	if s, ok := tr.Seconds(StageScore); !ok || s != 0.001 {
		t.Errorf("Seconds(score) = %v, %v", s, ok)
	}
	if _, ok := tr.Seconds(StageAgent); ok {
		t.Error("Seconds(agent_update) found a span that never ran")
	}
}

// TestTraceReusesEndClosures pins the batch path's span budget: once
// each stage has run, timing it again — on the same trace after a
// Reset — allocates nothing, and the spans stay right.
func TestTraceReusesEndClosures(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0), step: time.Millisecond}
	tr := NewTrace("0123456789abcdef", clk.now)
	event := func() {
		tr.Reset()
		end := tr.Stage(StageFilter)
		end()
		tr.Stage(StageScore)()
		tr.Stage(StageSwitch)()
		tr.Stage(StageAgent)()
	}
	event()
	if a := testing.AllocsPerRun(100, event); a != 0 {
		t.Errorf("timing four stages allocates %v times per event, want 0", a)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4: %+v", len(spans), spans)
	}
	for i, name := range Stages() {
		if spans[i].Name != name || spans[i].Seconds != 0.001 {
			t.Errorf("span %d = %+v, want %s of 0.001 s", i, spans[i], name)
		}
	}
}

func TestNewTraceNilClock(t *testing.T) {
	tr := NewTrace("0123456789abcdef", nil)
	tr.Stage(StageFilter)()
	if s, ok := tr.Seconds(StageFilter); !ok || s < 0 {
		t.Errorf("real-clock span = %v, %v", s, ok)
	}
}

func TestHandlerStampsTraceID(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf)

	ctx := WithTrace(context.Background(), "00000000deadbeef")
	log.InfoContext(ctx, "traced line", "k", "v")
	log.Info("untraced line")

	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "trace_id=00000000deadbeef") {
		t.Errorf("traced line missing trace_id: %s", lines[0])
	}
	if strings.Contains(lines[1], "trace_id") {
		t.Errorf("untraced line has trace_id: %s", lines[1])
	}
}

func TestHandlerWithAttrsAndGroupKeepStamping(t *testing.T) {
	var buf bytes.Buffer
	base := NewHandler(slog.NewTextHandler(&buf, nil))
	log := slog.New(base).With("svc", "fleet").WithGroup("req")

	ctx := WithTrace(context.Background(), "00000000deadbeef")
	log.InfoContext(ctx, "line", "k", "v")
	if out := buf.String(); !strings.Contains(out, "trace_id=00000000deadbeef") ||
		!strings.Contains(out, "svc=fleet") {
		t.Errorf("derived logger lost stamping or attrs: %s", out)
	}
	if !base.Enabled(context.Background(), slog.LevelInfo) {
		t.Error("Enabled(Info) = false")
	}
}

func TestNewHandlerIdempotent(t *testing.T) {
	var b strings.Builder
	h := NewHandler(slog.NewTextHandler(&b, nil))
	if NewHandler(h) != h {
		t.Error("NewHandler re-wrapped an already-stamping handler")
	}
	// The real-world shape: a command's NewLogger handler passed back
	// into NewHandler by the server must stamp trace_id exactly once.
	log := slog.New(NewHandler(NewLogger(&b).Handler()))
	ctx := WithTrace(context.Background(), TraceID("00000000deadbeef"))
	log.InfoContext(ctx, "request")
	if got := strings.Count(b.String(), "trace_id="); got != 1 {
		t.Errorf("trace_id stamped %d times, want exactly 1: %s", got, b.String())
	}
}
