package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"clrdse/internal/runtime"
)

// quietLogger drops request logs so test output stays readable.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// postJSON posts a body and decodes the response when out is non-nil,
// enforcing the expected status.
func postJSON(client *http.Client, url string, body any, wantStatus int, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var apiErr ErrorJSON
		_ = json.NewDecoder(resp.Body).Decode(&apiErr)
		return fmt.Errorf("status %s: %s", resp.Status, apiErr.Error)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// bootServer starts the service on a real loopback listener and
// returns its base URL; cleanup drains and stops it.
func bootServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Databases: fleetDatabases(t),
		Logger:    quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		if err := srv.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != http.ErrServerClosed {
			t.Errorf("serve returned %v", err)
		}
	})
	return srv, "http://" + l.Addr().String()
}

// TestServerEndToEndMatchesManager is the acceptance test: a booted
// clrserved-equivalent server must return, for the same database and
// QoS sequence, decisions identical to a direct in-process
// runtime.Manager — with the devices registered and driven
// concurrently over real HTTP.
func TestServerEndToEndMatchesManager(t *testing.T) {
	f := getFixture(t)
	_, base := bootServer(t)
	client := &http.Client{Timeout: 10 * time.Second}

	const devices, events = 8, 30
	scripts := make([][]runtime.QoSSpec, devices)
	for d := range scripts {
		scripts[d] = deviceScript(f.red, int64(500+d), events)
	}
	boot := looseSpec(f.red)

	// Reference decisions from direct in-process managers, with the
	// bytes encoding/json's Encoder writes for each one's answer.
	want := make([][]string, devices)
	wantBody := make([][]string, devices)
	for d := 0; d < devices; d++ {
		mgr, err := runtime.NewManager(runtime.ManagerParams{
			DB: f.red, Space: f.problem.Space, PRC: 0.5,
			Trigger: runtime.TriggerOnViolation,
		}, boot)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range scripts[d] {
			ref := mgr.OnQoSChange(spec)
			want[d] = append(want[d], decisionKey(t, ref))
			var body bytes.Buffer
			if err := json.NewEncoder(&body).Encode(decisionJSON(fmt.Sprintf("e2e-%d", d), ref)); err != nil {
				t.Fatal(err)
			}
			wantBody[d] = append(wantBody[d], body.String())
		}
	}

	// The same traffic over HTTP, all devices concurrently.
	got := make([][]string, devices)
	gotBody := make([][]string, devices)
	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			id := fmt.Sprintf("e2e-%d", d)
			err := postJSON(client, base+"/v1/devices", RegisterRequest{
				ID: id, Database: "red", PRC: 0.5, Trigger: "on-violation",
				Initial: QoSSpecJSON{SMaxMs: boot.SMaxMs, FMin: boot.FMin},
			}, http.StatusCreated, nil)
			if err != nil {
				t.Errorf("register %s: %v", id, err)
				return
			}
			for _, spec := range scripts[d] {
				payload, err := json.Marshal(QoSSpecJSON{SMaxMs: spec.SMaxMs, FMin: spec.FMin})
				if err != nil {
					t.Error(err)
					return
				}
				status, raw, err := postRaw(client, base+"/v1/devices/"+id+"/qos", "application/json", payload)
				if err != nil || status != http.StatusOK {
					t.Errorf("qos %s: status %d, %v (%s)", id, status, err, raw)
					return
				}
				gotBody[d] = append(gotBody[d], string(raw))
				var dec DecisionJSON
				if err := json.Unmarshal(raw, &dec); err != nil {
					t.Errorf("qos %s: %v", id, err)
					return
				}
				dec.Device = "x" // normalise for comparison with decisionKey
				b, err := json.Marshal(dec)
				if err != nil {
					t.Error(err)
					return
				}
				got[d] = append(got[d], string(b))
			}
		}(d)
	}
	wg.Wait()

	for d := 0; d < devices; d++ {
		if len(got[d]) != len(want[d]) {
			t.Fatalf("device %d: %d HTTP decisions vs %d in-process", d, len(got[d]), len(want[d]))
		}
		for i := range want[d] {
			if got[d][i] != want[d][i] {
				t.Fatalf("device %d event %d:\n  http:       %s\n  in-process: %s",
					d, i, got[d][i], want[d][i])
			}
			// The served bytes, not a re-marshalling of them, must be
			// what encoding/json writes for the reference answer.
			if gotBody[d][i] != wantBody[d][i] {
				t.Fatalf("device %d event %d: body is not encoding/json's bytes:\n  http:          %q\n  encoding/json: %q",
					d, i, gotBody[d][i], wantBody[d][i])
			}
		}
	}

	// Device snapshots reflect the served traffic.
	var info DeviceJSON
	resp, err := client.Get(base + "/v1/devices/e2e-0")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Decisions != events {
		t.Errorf("device decisions = %d, want %d", info.Decisions, events)
	}
}

func TestServerErrorMapping(t *testing.T) {
	f := getFixture(t)
	srv, err := NewServer(ServerConfig{
		Databases:    fleetDatabases(t),
		Logger:       quietLogger(),
		MaxBodyBytes: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	boot := looseSpec(f.red)

	post := func(path, body string) int {
		resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := post("/v1/devices/ghost/qos", `{"s_max_ms":10,"f_min":0.5}`); got != http.StatusNotFound {
		t.Errorf("unknown device -> %d, want 404", got)
	}
	if got := post("/v1/devices", `{not json`); got != http.StatusBadRequest {
		t.Errorf("malformed body -> %d, want 400", got)
	}
	if got := post("/v1/devices", `{"id":"x","database":"red","unknown_field":1}`); got != http.StatusBadRequest {
		t.Errorf("unknown field -> %d, want 400", got)
	}
	reg := fmt.Sprintf(`{"id":"x","database":"red","initial":{"s_max_ms":%g,"f_min":%g}}`, boot.SMaxMs, boot.FMin)
	if got := post("/v1/devices", reg); got != http.StatusCreated {
		t.Fatalf("register -> %d, want 201", got)
	}
	if got := post("/v1/devices", reg); got != http.StatusConflict {
		t.Errorf("duplicate register -> %d, want 409", got)
	}
	// The padding must sit inside the JSON value: the decoder stops
	// reading at the end of the document, so trailing bytes would never
	// hit the MaxBytesReader.
	big := fmt.Sprintf(`{"id":"big%s","database":"red","initial":{"s_max_ms":10,"f_min":0.5}}`, strings.Repeat("g", 512))
	if got := post("/v1/devices", big); got != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body -> %d, want 413", got)
	}
	if got := post("/v1/devices/x/qos", `{"s_max_ms":-1,"f_min":0.5}`); got != http.StatusBadRequest {
		t.Errorf("invalid spec -> %d, want 400", got)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/devices/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("delete -> %d, want 204", resp.StatusCode)
	}

	// Health and database listing.
	get := func(path string) (int, string) {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		io.Copy(&buf, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, buf.String()
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("healthz -> %d %q", code, body)
	}
	if code, body := get("/v1/databases"); code != http.StatusOK ||
		!strings.Contains(body, `"name":"red"`) || !strings.Contains(body, `"name":"based"`) {
		t.Errorf("databases -> %d %q", code, body)
	}
}

func TestServerGracefulShutdown(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Databases:     fleetDatabases(t),
		Logger:        quietLogger(),
		ShutdownGrace: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx, "127.0.0.1:0") }()
	// Give Run a moment to bind, then trigger the drain path.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Run returned %v, want nil after graceful drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after context cancellation")
	}
}
