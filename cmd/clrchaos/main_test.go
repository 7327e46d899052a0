package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"clrdse/internal/fleet/fleettest"
	"clrdse/internal/fleet/fleettest/soak"
)

// TestRunClusterSoakSmoke drives the binary's cluster mode end to end
// at tiny dimensions: the invariant checks must pass clean and the
// report must end in OK.
func TestRunClusterSoakSmoke(t *testing.T) {
	dbs, err := fleettest.DatabasesE()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	ok, err := run(&out, soak.Config{
		Databases:      dbs,
		Nodes:          2,
		Devices:        2,
		Events:         8,
		SpecSeed:       3,
		KillSeed:       7,
		Gamma:          0.9,
		Attempts:       6,
		AttemptTimeout: 5 * time.Second,
	}, "")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !ok || !strings.Contains(out.String(), "\nOK: ") {
		t.Fatalf("cluster soak failed:\n%s", out.String())
	}
}
