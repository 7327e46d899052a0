package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"clrdse/internal/fleet"
	"clrdse/internal/fleet/client"
	"clrdse/internal/fleet/fleettest"
)

// TestDeviceCallsEscapeTheID: a device call addresses exactly the
// device it names. Unescaped, DELETE /v1/devices/a?b reached device
// "a" and removed it.
func TestDeviceCallsEscapeTheID(t *testing.T) {
	dbs := fleettest.Databases(t)
	srv, err := fleet.NewServer(fleet.ServerConfig{
		Databases: dbs,
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	spec := fleettest.LooseSpec(dbs[0].DB)
	c := client.New(client.Config{BaseURL: ts.URL, MaxAttempts: 1})
	ctx := context.Background()
	if _, err := c.Register(ctx, fleet.RegisterRequest{
		ID: "a", Database: dbs[0].Name, PRC: 0.5,
		Initial: fleet.QoSSpecJSON{SMaxMs: spec.SMaxMs, FMin: spec.FMin},
	}); err != nil {
		t.Fatal(err)
	}

	err = c.Deregister(ctx, "a?b")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("Deregister(%q) = %v, want a 404", "a?b", err)
	}
	if _, err := c.Device(ctx, "a#b"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("Device(%q) = %v, want a 404", "a#b", err)
	}
	if _, err := c.QoS(ctx, "a?b", 1, fleet.QoSSpecJSON{SMaxMs: spec.SMaxMs, FMin: spec.FMin}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("QoS(%q) = %v, want a 404", "a?b", err)
	}
	if _, err := srv.Registry().Get("a"); err != nil {
		t.Fatalf("device a is gone after calls to other IDs: %v", err)
	}
}

// TestQoSAnswerOutlivesReadBuffer: the client reads responses into
// pooled buffers, so a returned decision must own its memory. Later
// answers, no longer than the first, land in the first one's buffer
// and must leave it unchanged.
func TestQoSAnswerOutlivesReadBuffer(t *testing.T) {
	first := `{"device":"dev-a","seq":1,"from":1,"to":2,"reconfigured":true,"violated":false,"cost_ms":2.5,` +
		`"binary_migration_ms":0,"bitstream_ms":2.5,"migrated_tasks":0,"reloaded_prrs":1,` +
		`"plan":[{"kind":"load-bitstream","task":-1,"pe":-1,"prr":0,"bitstream":7,"cost_ms":2.5}]}` + "\n"
	later := `{"device":"dev-b","seq":2,"from":2,"to":3,"reconfigured":true,"violated":false,"cost_ms":1.5,` +
		`"binary_migration_ms":1.5,"bitstream_ms":0,"migrated_tasks":1,"reloaded_prrs":0,` +
		`"plan":[{"kind":"copy-binary","task":3,"pe":1,"prr":-1,"bitstream":-1,"cost_ms":1.5}]}` + "\n"
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if calls.Add(1) == 1 {
			fmt.Fprint(w, first)
			return
		}
		fmt.Fprint(w, later)
	}))
	defer ts.Close()

	c := client.New(client.Config{BaseURL: ts.URL})
	spec := fleet.QoSSpecJSON{SMaxMs: 10, FMin: 0.9}
	dec, err := c.QoS(context.Background(), "dev-a", 1, spec)
	if err != nil {
		t.Fatal(err)
	}
	var want fleet.DecisionJSON
	if err := json.Unmarshal([]byte(first), &want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.QoS(context.Background(), "dev-b", uint64(i+2), spec); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(*dec, want) {
		t.Fatalf("earlier answer changed under later calls:\n got %+v\nwant %+v", *dec, want)
	}
}
