// Package fleettest provides shared fixtures and harnesses for code
// that exercises the fleet decision service from outside the fleet
// package: the design-time fixture (the flow run once per process on
// a small synthetic application), deterministic QoS event scripts, an
// in-process cluster, the cohort A/B harness and the artifact writer
// the soaks share. The soak harness itself is the sub-package soak.
// The harnesses are TB-free, so cmd/clrchaos and cmd/experiments run
// them too; cmd/clrchaos builds its own database from its flags and
// does not use the fixture.
package fleettest

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"clrdse/internal/dse"
	"clrdse/internal/fleet"
	"clrdse/internal/ga"
	"clrdse/internal/mapping"
	"clrdse/internal/platform"
	"clrdse/internal/relmodel"
	"clrdse/internal/rng"
	"clrdse/internal/runtime"
	"clrdse/internal/taskgraph"
)

type fixture struct {
	problem *dse.Problem
	base    *dse.Database
	red     *dse.Database
}

var (
	once   sync.Once
	fix    fixture
	fixErr error
)

func get(tb testing.TB) fixture {
	tb.Helper()
	f, err := build()
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// build runs the design-time flow once per process. It is the
// TB-free entry the harnesses share (RunAB, and NewCluster when no
// databases are given); cmd/clrchaos builds its own database instead.
func build() (fixture, error) {
	once.Do(func() {
		plat := platform.Default()
		g, err := taskgraph.Generate(taskgraph.GenParams{Seed: 51, NumTasks: 20}, plat)
		if err != nil {
			fixErr = err
			return
		}
		prob := &dse.Problem{
			Space:  &mapping.Space{Graph: g, Platform: plat, Catalogue: relmodel.DefaultCatalogue()},
			Env:    relmodel.DefaultEnv(),
			SMaxMs: g.PeriodMs,
			FMin:   0.90,
		}
		base, err := dse.RunBase(prob, ga.Params{PopSize: 28, Generations: 12, Seed: 1})
		if err != nil {
			fixErr = err
			return
		}
		red, err := dse.RunReD(prob, base, dse.ReDParams{
			GA: ga.Params{PopSize: 16, Generations: 8, Seed: 2}, MaxExtraPerSeed: 2,
		})
		if err != nil {
			fixErr = err
			return
		}
		fix = fixture{problem: prob, base: base, red: red}
	})
	return fix, fixErr
}

// Databases returns the fixture's decision bases, named "red" (the
// run-time-enriched database) and "based" (the stage-1 Pareto front).
func Databases(tb testing.TB) []fleet.NamedDatabase {
	f := get(tb)
	return namedDBs(f)
}

// DatabasesE is Databases for callers without a testing.TB.
func DatabasesE() ([]fleet.NamedDatabase, error) {
	f, err := build()
	if err != nil {
		return nil, err
	}
	return namedDBs(f), nil
}

func namedDBs(f fixture) []fleet.NamedDatabase {
	return []fleet.NamedDatabase{
		{Name: "red", DB: f.red, Space: f.problem.Space},
		{Name: "based", DB: f.base, Space: f.problem.Space},
	}
}

// Script precomputes a device's deterministic QoS event sequence from
// the database's satisfiable envelope: equal seeds yield identical
// scripts, independent of scheduling.
func Script(db *dse.Database, seed int64, events int) []runtime.QoSSpec {
	q := runtime.ModelFromDatabase(db)
	src := rng.New(seed)
	stream := q.Stream()
	specs := make([]runtime.QoSSpec, events)
	for i := range specs {
		specs[i] = stream.Next(src)
	}
	return specs
}

// LooseSpec returns a specification every point of the database
// satisfies — a safe boot specification.
func LooseSpec(db *dse.Database) runtime.QoSSpec {
	n := fleet.NamedDatabase{DB: db}
	_, maxS, minF, _ := n.Envelope()
	return runtime.QoSSpec{SMaxMs: maxS, FMin: minF}
}

// SaveArtifact writes v under name into the directory the
// SOAK_ARTIFACT_DIR environment variable names, for CI to upload; a
// string is written as is, anything else as indented JSON. With the
// variable unset it writes nothing.
func SaveArtifact(tb testing.TB, name string, v any) {
	dir := os.Getenv("SOAK_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	path := filepath.Join(dir, name)
	if err := WriteArtifact(path, v); err != nil {
		tb.Errorf("writing artifact: %v", err)
		return
	}
	tb.Logf("artifact written to %s", path)
}

// WriteArtifact writes v to path: a string as is, anything else as
// indented JSON.
func WriteArtifact(path string, v any) error {
	b, ok := v.(string)
	if !ok {
		j, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		b = string(j)
	}
	return os.WriteFile(path, []byte(b), 0o644)
}
