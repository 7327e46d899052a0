package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"regexp"
	"strings"
	"testing"
)

// namePattern is the rule BENCHMARK.json sets for workload and metric
// names.
var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitPattern is its rule for metric units.
var unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// checkName reports a workload or metric name that breaks namePattern.
func checkName(name string) error {
	if !namePattern.MatchString(name) {
		return fmt.Errorf("name %q: want a letter or digit, then at most 63 letters, digits, '_', '.' or '-'", name)
	}
	return nil
}

// checkUnit reports a unit that breaks unitPattern.
func checkUnit(unit string) error {
	if !unitPattern.MatchString(unit) {
		return fmt.Errorf("unit %q: want 1 to 16 letters, digits, '_', '/', '%%', '.' or '-'", unit)
	}
	return nil
}

func TestNameRules(t *testing.T) {
	for _, ok := range []string{"serve-single", "p50_us", "fleet.edge_self_us", "1a", strings.Repeat("a", 64)} {
		if err := checkName(ok); err != nil {
			t.Errorf("checkName(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", "_a", ".a", "a b", "a/b", "µs", strings.Repeat("a", 65)} {
		if checkName(bad) == nil {
			t.Errorf("checkName(%q) accepted", bad)
		}
	}
	for _, ok := range []string{"ms", "s", "1/s", "ops/s", "count", "%", "1"} {
		if err := checkUnit(ok); err != nil {
			t.Errorf("checkUnit(%q) = %v", ok, err)
		}
	}
	for _, bad := range []string{"", "µs", "a b", strings.Repeat("u", 17)} {
		if checkUnit(bad) == nil {
			t.Errorf("checkUnit(%q) accepted", bad)
		}
	}
}

func TestDeclaredNamesValid(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range workloads {
		if err := checkName(w.name); err != nil {
			t.Error(err)
		}
		if seen[w.name] {
			t.Errorf("workload %s declared twice", w.name)
		}
		seen[w.name] = true
	}
	for _, set := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range set {
			if err := checkName(m.name); err != nil {
				t.Error(err)
			}
			if err := checkUnit(m.unit); err != nil {
				t.Errorf("%s: %v", m.name, err)
			}
			if seen[m.name] {
				t.Errorf("name %s used twice", m.name)
			}
			seen[m.name] = true
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		t.Skip("no BENCHMARK.json next to this directory")
	}
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: file %q, program %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	maxBound, setupBound := 0.0, 0.0
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: file %s/%s, program %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: file %s/%s, program %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
}
