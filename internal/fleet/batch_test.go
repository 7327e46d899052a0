package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"clrdse/internal/runtime"
)

// postRaw posts raw bytes and returns status + body.
func postRaw(client *http.Client, url, contentType string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// TestDecodeJSONRejectsTrailingData is the regression test for the
// decode bug where everything after the first JSON value was silently
// ignored — `{...}{...}` decided on the first object's say-so.
func TestDecodeJSONRejectsTrailingData(t *testing.T) {
	_, base := bootServer(t)
	client := &http.Client{}
	spec := fleetDatabases(t)[0]
	_, maxS, minF, _ := spec.Envelope()
	reg := RegisterRequest{ID: "trail-1", Database: "red", PRC: 0.4,
		Initial: QoSSpecJSON{SMaxMs: maxS, FMin: minF}}
	if err := postJSON(client, base+"/v1/devices", reg, http.StatusCreated, nil); err != nil {
		t.Fatal(err)
	}
	good := fmt.Sprintf(`{"s_max_ms":%g,"f_min":%g}`, maxS, minF)
	cases := []struct {
		name, body string
		want       int
	}{
		{"clean value", good, http.StatusOK},
		{"trailing whitespace ok", good + "\n\t ", http.StatusOK},
		{"second object", good + good, http.StatusBadRequest},
		{"trailing garbage", good + "junk", http.StatusBadRequest},
		{"trailing bracket", good + "]", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body, err := postRaw(client, base+"/v1/devices/trail-1/qos", "application/json", []byte(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if status != tc.want {
				t.Errorf("status = %d, want %d (body %s)", status, tc.want, body)
			}
		})
	}
}

// TestRegistryDecideBatch drives DecideBatch directly: per-device
// ordering, replay hits, pre-failed slots, unknown devices, and the
// multi-shard fan-out all in one batch.
func TestRegistryDecideBatch(t *testing.T) {
	f := getFixture(t)
	reg, err := NewRegistry(fleetDatabases(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	q := runtime.ModelFromDatabase(f.red)
	tight := runtime.QoSSpec{SMaxMs: q.HiS, FMin: q.HiF}
	loose := looseSpec(f.red)
	// Enough devices to land on several of the 4 shards.
	for i := 0; i < 8; i++ {
		if _, err := reg.Register(DeviceParams{
			ID: fmt.Sprintf("b-%d", i), Database: "red", PRC: 0.4, Initial: loose,
		}); err != nil {
			t.Fatal(err)
		}
	}
	var events []BatchEvent
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("b-%d", i)
		events = append(events,
			BatchEvent{Device: id, Seq: 1, Spec: tight},
			BatchEvent{Device: id, Seq: 1, Spec: tight}, // retry: replay-cache hit
			BatchEvent{Device: id, Seq: 2, Spec: loose},
		)
	}
	// b-0's seq-2 slot is pre-failed below, so its cache stays at seq 1
	// — the stale probe targets b-1, whose cache did advance to 2.
	events = append(events,
		BatchEvent{Device: "ghost", Seq: 1, Spec: loose},
		BatchEvent{Device: "b-1", Seq: 1, Spec: tight}, // behind seq 2: stale
	)
	results := make([]BatchOutcome, len(events))
	results[2] = BatchOutcome{Err: errors.New("pre-failed by validation")}
	reg.DecideBatch(context.Background(), events, results)

	for i := 0; i < 8; i++ {
		first, retry, next := results[i*3], results[i*3+1], results[i*3+2]
		if i == 0 {
			// Slot 2 was pre-failed; DecideBatch must not have touched it.
			if next.Err == nil || next.Err.Error() != "pre-failed by validation" {
				t.Errorf("pre-failed slot overwritten: %+v", next)
			}
		} else if next.Err != nil {
			t.Errorf("device b-%d seq 2: %v", i, next.Err)
		}
		if first.Err != nil {
			t.Fatalf("device b-%d seq 1: %v", i, first.Err)
		}
		if retry.Err != nil || !retry.Out.Replayed {
			t.Errorf("device b-%d retry: want replay, got %+v err %v", i, retry.Out, retry.Err)
		}
		if !reflect.DeepEqual(retry.Out.Decision, first.Out.Decision) {
			t.Errorf("device b-%d: replayed decision differs from original", i)
		}
	}
	if err := results[24].Err; !errors.Is(err, ErrNoDevice) {
		t.Errorf("ghost event: want ErrNoDevice, got %v", err)
	}
	if err := results[25].Err; !errors.Is(err, ErrStaleSeq) {
		t.Errorf("stale event: want ErrStaleSeq, got %v", err)
	}

	// A second batch against the same registry: the pooled plan now
	// carries state from the first call, and a dirty reset once made it
	// drop every run whose shard it had already seen — events answered
	// as zero outcomes instead of replays and stales. Every slot must
	// carry a real verdict.
	again := []BatchEvent{
		{Device: "b-1", Seq: 2, Spec: loose}, // replay of the first batch's seq 2
		{Device: "b-2", Seq: 1, Spec: tight}, // behind seq 2: stale
		{Device: "b-3", Seq: 3, Spec: tight}, // fresh advance
	}
	againResults := make([]BatchOutcome, len(again))
	reg.DecideBatch(context.Background(), again, againResults)
	if r := againResults[0]; r.Err != nil || !r.Out.Replayed {
		t.Errorf("second batch replay: want replay, got %+v err %v", r.Out, r.Err)
	}
	if err := againResults[1].Err; !errors.Is(err, ErrStaleSeq) {
		t.Errorf("second batch stale: want ErrStaleSeq, got %v", err)
	}
	if r := againResults[2]; r.Err != nil || r.Out.Replayed || r.Out.Degraded {
		t.Errorf("second batch fresh: want fresh decision, got %+v err %v", r.Out, r.Err)
	}
}

// batchEquivSpecs builds a deterministic event script per device:
// alternating tight/loose specs with a retry and a stale entry mixed
// in, exercising fresh decisions, replay hits and per-event errors.
type equivEvent struct {
	dev  string
	seq  uint64
	spec QoSSpecJSON
}

func batchEquivScript(t *testing.T, devices []string) []equivEvent {
	f := getFixture(t)
	q := runtime.ModelFromDatabase(f.red)
	loose := looseSpec(f.red)
	tightJ := QoSSpecJSON{SMaxMs: q.HiS, FMin: q.HiF}
	looseJ := QoSSpecJSON{SMaxMs: loose.SMaxMs, FMin: loose.FMin}
	var script []equivEvent
	for round := 0; round < 3; round++ {
		for _, dev := range devices {
			spec := looseJ
			if round%2 == 0 {
				spec = tightJ
			}
			script = append(script, equivEvent{dev: dev, seq: uint64(round + 1), spec: spec})
		}
	}
	// Retries (replay hits) and errors, interleaved across devices.
	script = append(script,
		equivEvent{dev: devices[0], seq: 3, spec: looseJ},        // replay
		equivEvent{dev: devices[1], seq: 1, spec: tightJ},        // stale
		equivEvent{dev: "ghost", seq: 1, spec: looseJ},           // 404
		equivEvent{dev: devices[2], seq: 4, spec: QoSSpecJSON{}}, // invalid spec
		equivEvent{dev: devices[2], seq: 4, spec: tightJ},        // fresh after the invalid one
	)
	return script
}

// driveSingle sends the script one event at a time and returns, per
// event, the normalized decision JSON or "status error" string.
func driveSingle(t *testing.T, client *http.Client, base string, script []equivEvent) []string {
	t.Helper()
	out := make([]string, len(script))
	for i, ev := range script {
		body, err := json.Marshal(QoSRequest{QoSSpecJSON: ev.spec, Seq: ev.seq})
		if err != nil {
			t.Fatal(err)
		}
		status, data, err := postRaw(client, base+"/v1/devices/"+ev.dev+"/qos", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		if status == http.StatusOK {
			out[i] = strings.TrimSpace(string(data))
			continue
		}
		var e ErrorJSON
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("event %d: undecodable error body %q", i, data)
		}
		out[i] = fmt.Sprintf("%d %s", status, e.Error)
	}
	return out
}

// normalizeBatch renders batch results in driveSingle's normal form.
func normalizeBatch(t *testing.T, results []BatchResultJSON) []string {
	t.Helper()
	out := make([]string, len(results))
	for i, res := range results {
		if res.Status == http.StatusOK {
			data, err := json.Marshal(res.Decision)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = string(data)
			continue
		}
		out[i] = fmt.Sprintf("%d %s", res.Status, res.Error)
	}
	return out
}

func registerEquivDevices(t *testing.T, client *http.Client, base string, devices []string) {
	t.Helper()
	f := getFixture(t)
	loose := looseSpec(f.red)
	for _, dev := range devices {
		req := RegisterRequest{ID: dev, Database: "red", PRC: 0.4,
			Initial: QoSSpecJSON{SMaxMs: loose.SMaxMs, FMin: loose.FMin}}
		if err := postJSON(client, base+"/v1/devices", req, http.StatusCreated, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchSingleEquivalence is the tentpole's correctness bar: the
// same event script through the batch endpoint (JSON and binary) must
// answer byte-identically to the single-event path — fresh decisions,
// replay hits, stale rejections, 404s and validation errors alike.
func TestBatchSingleEquivalence(t *testing.T) {
	devices := []string{"eq-a", "eq-b", "eq-c"}
	script := batchEquivScript(t, devices)
	client := &http.Client{}

	// Reference: one server driven event by event.
	_, singleBase := bootServer(t)
	registerEquivDevices(t, client, singleBase, devices)
	want := driveSingle(t, client, singleBase, script)

	events := make([]BatchEventJSON, len(script))
	for i, ev := range script {
		events[i] = BatchEventJSON{Device: ev.dev, Seq: ev.seq, QoSSpecJSON: ev.spec}
	}

	t.Run("json", func(t *testing.T) {
		_, base := bootServer(t)
		registerEquivDevices(t, client, base, devices)
		body, err := json.Marshal(BatchRequestJSON{Events: events})
		if err != nil {
			t.Fatal(err)
		}
		status, data, err := postRaw(client, base+"/v1/devices:decide-batch", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusOK {
			t.Fatalf("batch status %d: %s", status, data)
		}
		var resp BatchResponseJSON
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatal(err)
		}
		compareEquiv(t, script, want, normalizeBatch(t, resp.Results))
	})

	t.Run("binary", func(t *testing.T) {
		_, base := bootServer(t)
		registerEquivDevices(t, client, base, devices)
		body, err := AppendBatchRequest(nil, events)
		if err != nil {
			t.Fatal(err)
		}
		status, data, err := postRaw(client, base+"/v1/devices:decide-batch", BinContentType, body)
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusOK {
			t.Fatalf("batch status %d: %s", status, data)
		}
		results, err := DecodeBatchResponse(data, nil)
		if err != nil {
			t.Fatal(err)
		}
		compareEquiv(t, script, want, normalizeBatch(t, results))
	})
}

func compareEquiv(t *testing.T, script []equivEvent, want, got []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d (%s seq %d):\n batch  %s\n single %s",
				i, script[i].dev, script[i].seq, got[i], want[i])
		}
	}
}

// TestBatchDegradedEquivalence injects a deterministic decide fault on
// both servers and checks the degraded stay-put answers match between
// the batch and single paths.
func TestBatchDegradedEquivalence(t *testing.T) {
	f := getFixture(t)
	loose := looseSpec(f.red)
	looseJ := QoSSpecJSON{SMaxMs: loose.SMaxMs, FMin: loose.FMin}
	q := runtime.ModelFromDatabase(f.red)
	tightJ := QoSSpecJSON{SMaxMs: q.HiS, FMin: q.HiF}
	hook := func(_ context.Context, id string, seq uint64) error {
		if id == "deg-a" && seq == 2 {
			return errors.New("injected decide fault")
		}
		return nil
	}
	boot := func() (string, *http.Client) {
		srv, err := NewServer(ServerConfig{
			Databases:  fleetDatabases(t),
			DecideHook: hook,
			Logger:     quietLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts.URL, ts.Client()
	}
	script := []equivEvent{
		{dev: "deg-a", seq: 1, spec: tightJ},
		{dev: "deg-a", seq: 2, spec: looseJ}, // faults: degraded stay-put
		{dev: "deg-a", seq: 3, spec: looseJ},
	}
	singleBase, client := boot()
	registerEquivDevices(t, client, singleBase, []string{"deg-a"})
	want := driveSingle(t, client, singleBase, script)
	if !strings.Contains(want[1], `"degraded":true`) {
		t.Fatalf("fault injection failed to degrade the single path: %s", want[1])
	}

	batchBase, client2 := boot()
	registerEquivDevices(t, client2, batchBase, []string{"deg-a"})
	events := make([]BatchEventJSON, len(script))
	for i, ev := range script {
		events[i] = BatchEventJSON{Device: ev.dev, Seq: ev.seq, QoSSpecJSON: ev.spec}
	}
	body, err := json.Marshal(BatchRequestJSON{Events: events})
	if err != nil {
		t.Fatal(err)
	}
	status, data, err := postRaw(client2, batchBase+"/v1/devices:decide-batch", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, data)
	}
	var resp BatchResponseJSON
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	compareEquiv(t, script, want, normalizeBatch(t, resp.Results))
}

// TestBatchEndpointEdges covers the request-shape edges: empty batch,
// over-cap batch, and the content-type echo of the binary wire.
func TestBatchEndpointEdges(t *testing.T) {
	_, base := bootServer(t)
	client := &http.Client{}

	t.Run("empty batch", func(t *testing.T) {
		status, data, err := postRaw(client, base+"/v1/devices:decide-batch", "application/json", []byte(`{"events":[]}`))
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, data)
		}
		var resp BatchResponseJSON
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != 0 {
			t.Errorf("want no results, got %d", len(resp.Results))
		}
	})

	t.Run("over cap", func(t *testing.T) {
		events := make([]BatchEventJSON, MaxBatchEvents+1)
		for i := range events {
			events[i] = BatchEventJSON{Device: "x", Seq: 1, QoSSpecJSON: QoSSpecJSON{SMaxMs: 1, FMin: 0.5}}
		}
		body, err := AppendBatchRequest(nil, events)
		if err != nil {
			t.Fatal(err)
		}
		status, data, err := postRaw(client, base+"/v1/devices:decide-batch", BinContentType, body)
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusBadRequest {
			t.Errorf("status %d, want 400 (body %s)", status, data)
		}
	})

	t.Run("binary response content type", func(t *testing.T) {
		body, err := AppendBatchRequest(nil, []BatchEventJSON{
			{Device: "nope", Seq: 1, QoSSpecJSON: QoSSpecJSON{SMaxMs: 1, FMin: 0.5}},
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(base+"/v1/devices:decide-batch", BinContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != BinContentType {
			t.Errorf("Content-Type %q, want %q", ct, BinContentType)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		results, err := DecodeBatchResponse(data, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 1 || results[0].Status != http.StatusNotFound {
			t.Errorf("want one 404 result, got %+v", results)
		}
	})

	t.Run("malformed binary body", func(t *testing.T) {
		status, _, err := postRaw(client, base+"/v1/devices:decide-batch", BinContentType, []byte("CLRBjunk"))
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusBadRequest {
			t.Errorf("status %d, want 400", status)
		}
	})
}

// doneProbe is a context that reports when the decide path first asks
// for its Done channel — which acquire does only once the semaphore's
// fast path has failed, so the caller is then waiting on the device.
type doneProbe struct {
	context.Context
	once  sync.Once
	asked chan struct{}
}

func (c *doneProbe) Done() <-chan struct{} {
	c.once.Do(func() { close(c.asked) })
	return c.Context.Done()
}

// TestDecisionLatencyIncludesSemaphoreWait pins one definition of
// clr_fleet_decision_latency_seconds on both decide paths: the first
// event of a device's run is timed from before the semaphore acquire,
// so a decision that waited for its device records at least the wait.
func TestDecisionLatencyIncludesSemaphoreWait(t *testing.T) {
	f := getFixture(t)
	spec := looseSpec(f.red)
	const hold = 30 * time.Millisecond
	for _, path := range []string{"single", "batch"} {
		t.Run(path, func(t *testing.T) {
			reg, err := NewRegistry(fleetDatabases(t), 4)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := reg.Register(DeviceParams{ID: "held", Database: "red", PRC: 0.4, Initial: spec}); err != nil {
				t.Fatal(err)
			}
			d, err := reg.lookup("held")
			if err != nil {
				t.Fatal(err)
			}
			ctx := &doneProbe{Context: context.Background(), asked: make(chan struct{})}
			d.sem <- struct{}{} // hold the device
			released := make(chan struct{})
			go func() {
				<-ctx.asked
				time.Sleep(hold)
				<-d.sem
				close(released)
			}()
			want := uint64(1)
			if path == "single" {
				if _, err := reg.DecideCtx(ctx, "held", 1, spec); err != nil {
					t.Fatal(err)
				}
			} else {
				events := []BatchEvent{{Device: "held", Seq: 1, Spec: spec}, {Device: "held", Seq: 2, Spec: spec}}
				results := make([]BatchOutcome, len(events))
				reg.DecideBatch(ctx, events, results)
				for i, res := range results {
					if res.Err != nil || res.Out.Degraded {
						t.Fatalf("event %d: %+v, %v", i, res.Out, res.Err)
					}
				}
				want = 2
			}
			<-released
			if got := reg.decisionLat.Count(); got != want {
				t.Fatalf("histogram observed %d decisions, want %d", got, want)
			}
			if got := time.Duration(reg.decisionLat.Sum() * float64(time.Second)); got < hold {
				t.Errorf("recorded %v of decision latency across a %v semaphore wait", got, hold)
			}
		})
	}
}

// TestBatchNonFiniteSpecAnswers400 sends CLRB events whose specs no
// JSON body can carry — a NaN or infinite S_SPEC, a NaN F_SPEC — to
// hypervolume devices, between valid events. Each non-finite slot
// answers 400 on its own, its neighbours decide, and the server keeps
// serving: unvalidated, a NaN S_SPEC makes every hypervolume area NaN.
func TestBatchNonFiniteSpecAnswers400(t *testing.T) {
	f := getFixture(t)
	_, base := bootServer(t)
	client := &http.Client{}
	loose := looseSpec(f.red)
	top := math.Inf(-1)
	for _, p := range f.red.Points {
		top = max(top, p.Reliability)
	}
	for _, dev := range []string{"hv-a", "hv-b"} {
		req := RegisterRequest{ID: dev, Database: "red", PRC: 0.4, Policy: "hypervolume",
			Initial: QoSSpecJSON{SMaxMs: loose.SMaxMs, FMin: loose.FMin}}
		if err := postJSON(client, base+"/v1/devices", req, http.StatusCreated, nil); err != nil {
			t.Fatal(err)
		}
	}
	valid := QoSSpecJSON{SMaxMs: loose.SMaxMs, FMin: top}
	events := []BatchEventJSON{
		{Device: "hv-a", Seq: 1, QoSSpecJSON: valid},
		{Device: "hv-a", Seq: 2, QoSSpecJSON: QoSSpecJSON{SMaxMs: math.NaN(), FMin: loose.FMin}},
		{Device: "hv-b", Seq: 1, QoSSpecJSON: QoSSpecJSON{SMaxMs: math.Inf(1), FMin: top}},
		{Device: "hv-b", Seq: 2, QoSSpecJSON: QoSSpecJSON{SMaxMs: loose.SMaxMs, FMin: math.NaN()}},
		{Device: "hv-a", Seq: 3, QoSSpecJSON: QoSSpecJSON{SMaxMs: math.Inf(-1), FMin: loose.FMin}},
		{Device: "hv-b", Seq: 3, QoSSpecJSON: valid},
	}
	wantStatus := []int{200, 400, 400, 400, 400, 200}
	body, err := AppendBatchRequest(nil, events)
	if err != nil {
		t.Fatal(err)
	}
	status, data, err := postRaw(client, base+"/v1/devices:decide-batch", BinContentType, body)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, data)
	}
	results, err := DecodeBatchResponse(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(events) {
		t.Fatalf("%d results for %d events", len(results), len(events))
	}
	for i, res := range results {
		switch {
		case res.Status != wantStatus[i]:
			t.Errorf("event %d: status %d (%q), want %d", i, res.Status, res.Error, wantStatus[i])
		case res.Status == http.StatusOK && (res.Decision.Device != events[i].Device || res.Decision.Seq != events[i].Seq):
			t.Errorf("event %d: decision for %s seq %d", i, res.Decision.Device, res.Decision.Seq)
		case res.Status == http.StatusBadRequest && !strings.Contains(res.Error, "must be"):
			t.Errorf("event %d: error %q does not name the bound", i, res.Error)
		}
	}
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("server stopped serving after the batch: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz answers %d after the batch", resp.StatusCode)
	}
}
