package fleet

// Tests of the fleet's observability surface: the trace edge in the
// HTTP middleware, the per-shard decision journal and its
// /debug/decisions view, and the stage-latency metrics.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"clrdse/internal/obs"
)

// getJSON fetches a URL and decodes the body, enforcing the status.
func getJSON(url string, wantStatus int, out any) (http.Header, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var apiErr ErrorJSON
		_ = json.NewDecoder(resp.Body).Decode(&apiErr)
		return resp.Header, fmt.Errorf("status %s: %s", resp.Status, apiErr.Error)
	}
	if out != nil {
		return resp.Header, json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.Header, nil
}

func TestTraceHeaderEdge(t *testing.T) {
	_, base := bootServer(t)

	t.Run("valid header adopted and echoed", func(t *testing.T) {
		req, err := http.NewRequest(http.MethodGet, base+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		const want = "00deadbeef00cafe"
		req.Header.Set(obs.TraceHeader, want)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get(obs.TraceHeader); got != want {
			t.Fatalf("trace header = %q, want adopted %q", got, want)
		}
	})

	t.Run("absent or invalid header minted", func(t *testing.T) {
		for _, bad := range []string{"", "not-a-trace", "ABCDEF0123456789"} {
			req, err := http.NewRequest(http.MethodGet, base+"/healthz", nil)
			if err != nil {
				t.Fatal(err)
			}
			if bad != "" {
				req.Header.Set(obs.TraceHeader, bad)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			got := obs.TraceID(resp.Header.Get(obs.TraceHeader))
			if !got.IsValid() {
				t.Fatalf("header %q: minted trace %q is not a valid trace ID", bad, got)
			}
			if string(got) == bad {
				t.Fatalf("invalid header %q was adopted instead of replaced", bad)
			}
		}
	})
}

// TestDebugDecisionsEndToEnd drives decisions over HTTP and checks
// the journal's /debug/decisions view: every decision appears exactly
// once, carries the trace ID the response echoed, and the device and
// limit filters narrow the answer.
func TestDebugDecisionsEndToEnd(t *testing.T) {
	srv, base := bootServer(t)
	f := getFixture(t)
	spec := looseSpec(f.red)

	devices := []string{"ed-0", "ed-1", "ed-2"}
	for _, id := range devices {
		err := postJSON(http.DefaultClient, base+"/v1/devices", RegisterRequest{
			ID: id, Database: "red",
			Initial: QoSSpecJSON{SMaxMs: spec.SMaxMs, FMin: spec.FMin},
		}, http.StatusCreated, nil)
		if err != nil {
			t.Fatal(err)
		}
	}

	// Each device decides 4 sequenced events; record the trace ID the
	// response echoed for (device, seq).
	const perDevice = 4
	traces := make(map[string]string)
	for _, id := range devices {
		for seq := uint64(1); seq <= perDevice; seq++ {
			body, err := json.Marshal(QoSRequest{
				QoSSpecJSON: QoSSpecJSON{SMaxMs: spec.SMaxMs, FMin: spec.FMin},
				Seq:         seq,
			})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(base+"/v1/devices/"+id+"/qos", "application/json",
				strings.NewReader(string(body)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("qos %s seq %d: status %s", id, seq, resp.Status)
			}
			traces[fmt.Sprintf("%s/%d", id, seq)] = resp.Header.Get(obs.TraceHeader)
		}
	}

	t.Run("fleet-wide view is complete and exactly once", func(t *testing.T) {
		var out DecisionsJSON
		if _, err := getJSON(base+"/debug/decisions", http.StatusOK, &out); err != nil {
			t.Fatal(err)
		}
		if out.Count != len(devices)*perDevice || len(out.Decisions) != out.Count {
			t.Fatalf("count = %d (len %d), want %d",
				out.Count, len(out.Decisions), len(devices)*perDevice)
		}
		seen := make(map[string]int)
		for _, e := range out.Decisions {
			key := fmt.Sprintf("%s/%d", e.Device, e.Seq)
			seen[key]++
			if want := traces[key]; string(e.TraceID) != want {
				t.Fatalf("%s: journal trace %q, response header said %q", key, e.TraceID, want)
			}
			if e.Candidates == 0 {
				t.Fatalf("%s: journal entry has no candidate count", key)
			}
			if len(e.Stages) == 0 {
				t.Fatalf("%s: journal entry has no stage spans", key)
			}
		}
		for key, n := range seen {
			if n != 1 {
				t.Fatalf("decision %s journaled %d times, want exactly once", key, n)
			}
		}
	})

	t.Run("device filter", func(t *testing.T) {
		var out DecisionsJSON
		if _, err := getJSON(base+"/debug/decisions?device=ed-1", http.StatusOK, &out); err != nil {
			t.Fatal(err)
		}
		if out.Device != "ed-1" || out.Count != perDevice {
			t.Fatalf("device=%q count=%d, want ed-1 with %d entries", out.Device, out.Count, perDevice)
		}
		for _, e := range out.Decisions {
			if e.Device != "ed-1" {
				t.Fatalf("filtered view leaked device %q", e.Device)
			}
		}
	})

	t.Run("limit keeps the newest", func(t *testing.T) {
		var out DecisionsJSON
		if _, err := getJSON(base+"/debug/decisions?device=ed-2&limit=2", http.StatusOK, &out); err != nil {
			t.Fatal(err)
		}
		if out.Count != 2 {
			t.Fatalf("limit=2 returned %d entries", out.Count)
		}
		for _, e := range out.Decisions {
			if e.Seq < perDevice-1 {
				t.Fatalf("limit kept seq %d, want the newest two (%d, %d)",
					e.Seq, perDevice-1, perDevice)
			}
		}
	})

	t.Run("invalid limit rejected", func(t *testing.T) {
		if _, err := getJSON(base+"/debug/decisions?limit=x", http.StatusBadRequest, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := getJSON(base+"/debug/decisions?limit=-1", http.StatusBadRequest, nil); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("replays are not journaled", func(t *testing.T) {
		// Retry an already-decided sequence: answered from the replay
		// cache, so the journal must not grow.
		before := srv.Registry().Decisions("", 0)
		err := postJSON(http.DefaultClient, base+"/v1/devices/ed-0/qos", QoSRequest{
			QoSSpecJSON: QoSSpecJSON{SMaxMs: spec.SMaxMs, FMin: spec.FMin},
			Seq:         perDevice,
		}, http.StatusOK, nil)
		if err != nil {
			t.Fatal(err)
		}
		after := srv.Registry().Decisions("", 0)
		if len(after) != len(before) {
			t.Fatalf("replay grew the journal from %d to %d entries", len(before), len(after))
		}
	})

	t.Run("stage metrics and explained counter exposed", func(t *testing.T) {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, st := range obs.Stages() {
			if st == obs.StageAgent {
				continue // no AuRA device registered here
			}
			want := fmt.Sprintf(`clr_decision_stage_seconds_count{stage=%q}`, st)
			if !strings.Contains(text, want) {
				t.Errorf("/metrics lacks %s", want)
			}
		}
		if !strings.Contains(text, "clr_decisions_explained_total") {
			t.Errorf("/metrics lacks clr_decisions_explained_total")
		}
	})
}

// TestJournalDegradedEntries checks the degraded path journals too:
// a faulted decision appears as a Degraded entry under the same
// sequence number, and the real retry afterwards appears exactly once
// non-degraded.
func TestJournalDegradedEntries(t *testing.T) {
	reg, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	fail := true
	reg.SetDecideHook(func(ctx context.Context, device string, seq uint64) error {
		if fail {
			return errors.New("injected fault")
		}
		return nil
	})
	f := getFixture(t)
	spec := looseSpec(f.red)
	if _, err := reg.Register(DeviceParams{ID: "dev", Database: "red", Initial: spec}); err != nil {
		t.Fatal(err)
	}

	ctx := obs.WithTrace(context.Background(), obs.TraceID("aaaabbbbccccdddd"))
	out, err := reg.DecideCtx(ctx, "dev", 1, spec)
	if err != nil || !out.Degraded {
		t.Fatalf("faulted decide: out=%+v err=%v, want degraded", out, err)
	}
	fail = false
	out, err = reg.DecideCtx(ctx, "dev", 1, spec)
	if err != nil || out.Degraded || out.Replayed {
		t.Fatalf("retry: out=%+v err=%v, want real decision", out, err)
	}

	entries := reg.Decisions("dev", 0)
	if len(entries) != 2 {
		t.Fatalf("journal has %d entries, want degraded + real = 2", len(entries))
	}
	var degraded, real int
	for _, e := range entries {
		if e.Seq != 1 || e.Device != "dev" {
			t.Fatalf("unexpected entry %+v", e)
		}
		if string(e.TraceID) != "aaaabbbbccccdddd" {
			t.Fatalf("entry trace %q, want the context's ID", e.TraceID)
		}
		if e.Degraded {
			degraded++
			if e.From != e.To || e.Candidates != 0 || len(e.Stages) != 0 {
				t.Fatalf("degraded entry should be a stay-put with no detail: %+v", e)
			}
		} else {
			real++
		}
	}
	if degraded != 1 || real != 1 {
		t.Fatalf("degraded=%d real=%d, want 1 and 1", degraded, real)
	}
}

// TestSetJournalCapBounds checks the flight recorder really is a
// ring: with a cap of 2, only the newest two decisions survive.
func TestSetJournalCapBounds(t *testing.T) {
	reg, err := NewRegistry(fleetDatabases(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	reg.SetJournalCap(2)
	f := getFixture(t)
	spec := looseSpec(f.red)
	if _, err := reg.Register(DeviceParams{ID: "dev", Database: "red", Initial: spec}); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if _, err := reg.DecideCtx(context.Background(), "dev", seq, spec); err != nil {
			t.Fatal(err)
		}
	}
	entries := reg.Decisions("dev", 0)
	if len(entries) != 2 || entries[0].Seq != 4 || entries[1].Seq != 5 {
		t.Fatalf("cap-2 journal = %+v, want seqs [4 5]", entries)
	}
}

// TestMinterSeedReproducible pins the deterministic minting contract
// at the server level: two servers with the same TraceSeed mint the
// same trace IDs for the same request sequence.
func TestMinterSeedReproducible(t *testing.T) {
	mint := func(seed int64) []string {
		srv, err := NewServer(ServerConfig{
			Databases: fleetDatabases(t),
			Logger:    quietLogger(),
			TraceSeed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for i := 0; i < 3; i++ {
			req, err := http.NewRequest(http.MethodGet, "/healthz", nil)
			if err != nil {
				t.Fatal(err)
			}
			w := httptest.NewRecorder()
			srv.Handler().ServeHTTP(w, req)
			ids = append(ids, w.Header().Get(obs.TraceHeader))
		}
		return ids
	}
	a, b := mint(7), mint(7)
	c := mint(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed minted %q vs %q at request %d", a[i], b[i], i)
		}
		if a[i] == c[i] {
			t.Fatalf("different seeds minted the same ID %q at request %d", a[i], i)
		}
	}
}

// TestDecideDirectCallerNoTrace checks the registry tolerates callers
// that bypass the HTTP edge: no trace in the context journals an
// entry with an empty trace ID rather than minting mid-stack.
func TestDecideDirectCallerNoTrace(t *testing.T) {
	reg, err := NewRegistry(fleetDatabases(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	f := getFixture(t)
	spec := looseSpec(f.red)
	if _, err := reg.Register(DeviceParams{ID: "dev", Database: "red", Initial: spec}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Decide("dev", spec); err != nil {
		t.Fatal(err)
	}
	entries := reg.Decisions("dev", 0)
	if len(entries) != 1 {
		t.Fatalf("journal has %d entries, want 1", len(entries))
	}
	if entries[0].TraceID != "" {
		t.Fatalf("direct call minted trace %q mid-stack; want empty", entries[0].TraceID)
	}
}

// TestRequestDurationHistogram requires one latency observation per
// routed request: after register, qos and decide_batch traffic, each
// endpoint's clr_http_request_duration_seconds_count equals its
// clr_http_requests_total.
func TestRequestDurationHistogram(t *testing.T) {
	f := getFixture(t)
	_, base := bootServer(t)
	// One keep-alive connection used in sequence, every body read to
	// the end: the server reads a connection's next request only once
	// the previous handler, and the middleware observing it, returned,
	// so the scrape below follows every observation it checks.
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	boot := looseSpec(f.red)
	script := deviceScript(f.red, 77, 5)
	var events []BatchEventJSON
	for d := 0; d < 2; d++ {
		id := fmt.Sprintf("lat-%d", d)
		reg, err := json.Marshal(RegisterRequest{ID: id, Database: "red", PRC: 0.5,
			Initial: QoSSpecJSON{SMaxMs: boot.SMaxMs, FMin: boot.FMin}})
		if err != nil {
			t.Fatal(err)
		}
		if status, raw, err := postRaw(client, base+"/v1/devices", "application/json", reg); err != nil || status != http.StatusCreated {
			t.Fatalf("register %s: status %d, %v (%s)", id, status, err, raw)
		}
		for i, spec := range script {
			body, err := json.Marshal(QoSRequest{QoSSpecJSON: QoSSpecJSON{SMaxMs: spec.SMaxMs, FMin: spec.FMin}, Seq: uint64(i + 1)})
			if err != nil {
				t.Fatal(err)
			}
			if status, raw, err := postRaw(client, base+"/v1/devices/"+id+"/qos", "application/json", body); err != nil || status != http.StatusOK {
				t.Fatalf("qos %s: status %d, %v (%s)", id, status, err, raw)
			}
			events = append(events, BatchEventJSON{Device: id, Seq: uint64(len(script) + i + 1),
				QoSSpecJSON: QoSSpecJSON{SMaxMs: spec.SMaxMs, FMin: spec.FMin}})
		}
	}
	body, err := AppendBatchRequest(nil, events)
	if err != nil {
		t.Fatal(err)
	}
	if status, raw, err := postRaw(client, base+"/v1/devices:decide-batch", BinContentType, body); err != nil || status != http.StatusOK {
		t.Fatalf("decide_batch: status %d, %v (%s)", status, err, raw)
	}

	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	sample := func(series string) string {
		for _, line := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(line, series+" "); ok {
				return v
			}
		}
		t.Fatalf("/metrics lacks %s", series)
		return ""
	}
	for _, ep := range []struct{ name, want string }{{"register", "2"}, {"qos", "10"}, {"decide_batch", "1"}} {
		label := fmt.Sprintf(`{endpoint=%q}`, ep.name)
		requests := sample("clr_http_requests_total" + label)
		observed := sample("clr_http_request_duration_seconds_count" + label)
		if requests != ep.want || observed != requests {
			t.Errorf("%s: %s requests, %s latency observations, want %s of each", ep.name, requests, observed, ep.want)
		}
	}
}
