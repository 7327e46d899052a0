package main

import (
	"encoding/json"
	"testing"

	"clrdse/internal/core"
	"clrdse/internal/dse"
	"clrdse/internal/platform"
	"clrdse/internal/taskgraph"
)

// Short variants of the workloads: the same code paths at sizes that
// run in seconds, also under the race detector.
var (
	testSingle = &serveConfig{
		name: "serve-single", tasks: 16, points: 24, trigger: "on-violation",
		slots: 8, sessionEvents: 6, cohortTable: true, idle: 64,
		warmupCalls: 40, qualityEvents: 400, maxCallsPerSecond: 30000,
	}
	testBatch = &serveConfig{
		name: "serve-batch", tasks: 16, points: 40, trigger: "always", batch: true,
		devices: 32, callEvents: 32, deviceEvents: 4, candidate: true,
		warmupCalls: 4, qualityEvents: 600, maxCallsPerSecond: 2000,
	}
	testDesign = func() *designConfig {
		c := *designCfg
		c.tasks = []int{10, 13}
		c.pretrainCycles, c.simCycles = 2e4, 2e4
		return &c
	}()
)

var quality = []string{"drc_ms_per_event", "energy_mj_per_event", "hv"}

// checkRuns runs a workload twice at one seed: both runs must serve
// every op correctly and report bit-identical quality metrics.
func checkRuns(t *testing.T, run func(options) (map[string]float64, outcome, error)) {
	t.Helper()
	o := options{seed: 7, seconds: 0.2, setups: 1, traceDir: t.TempDir()}
	var first map[string]float64
	for i := 0; i < 2; i++ {
		vals, out, err := run(o)
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 || len(out.problems) != 0 || out.attempted == 0 {
			t.Fatalf("run %d: attempted %d, failed %d, problems %v", i, out.attempted, out.failed, out.problems)
		}
		if _, err := buildReport(vals, out, endToEnd); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = vals
			continue
		}
		for _, q := range quality {
			if vals[q] != first[q] || vals[q] <= 0 {
				t.Errorf("%s: %v then %v, want equal and positive", q, first[q], vals[q])
			}
		}
	}
	o.trace = true
	vals, out, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || len(out.problems) != 0 {
		t.Fatalf("traced run: failed %d, problems %v", out.failed, out.problems)
	}
	if _, err := buildReport(vals, out, perLayer); err != nil {
		t.Fatal(err)
	}
}

func TestServeSingleShort(t *testing.T) {
	checkRuns(t, func(o options) (map[string]float64, outcome, error) { return runServe(testSingle, o) })
}

func TestServeBatchShort(t *testing.T) {
	checkRuns(t, func(o options) (map[string]float64, outcome, error) { return runServe(testBatch, o) })
}

func TestDesignShort(t *testing.T) {
	checkRuns(t, func(o options) (map[string]float64, outcome, error) { return runDesign(testDesign, o) })
}

// TestComposeMatchesCoreBuild keeps the design workload's two timed
// stages byte-identical to one core.Build call for the same options.
func TestComposeMatchesCoreBuild(t *testing.T) {
	apps, err := designSetup(testDesign, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, heuristics := range []bool{false, true} {
		app := apps[1]
		opts := app.opts
		opts.HeuristicSeeds = heuristics
		g, err := taskgraph.Generate(app.gen, platform.Default())
		if err != nil {
			t.Fatal(err)
		}
		var gotStats, wantStats dse.Stats
		staged, err := buildStages(g, opts, &gotStats, nil, spanRef{id: -1})
		if err != nil {
			t.Fatal(err)
		}
		opts.Stats = &wantStats
		sys, err := core.Build(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name      string
			got, want *dse.Database
		}{{"BaseD", staged.BaseD, sys.BaseD}, {"ReD", staged.ReD, sys.ReD}} {
			got, err := json.Marshal(c.got)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(c.want)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("heuristics=%v: %s differs from core.Build's", heuristics, c.name)
			}
		}
		if gotStats != wantStats {
			t.Errorf("heuristics=%v: stats %+v, core.Build %+v", heuristics, gotStats, wantStats)
		}
	}
}

func TestOracleCountsDivergence(t *testing.T) {
	var o oracle
	o.compare("a", record{hash: 1, n: 3}, record{hash: 1, n: 3})
	o.compare("b", record{hash: 1, n: 3, bad: true}, record{hash: 2, n: 3})
	if o.failed != 0 {
		t.Fatalf("matching or already-failed streams counted: %d", o.failed)
	}
	o.compare("c", record{hash: 1, n: 3}, record{hash: 2, n: 3})
	o.compare("d", record{hash: 1, n: 2}, record{hash: 1, n: 3})
	if o.failed != 5 || len(o.problems) != 2 {
		t.Fatalf("divergent streams: failed %d, problems %v", o.failed, o.problems)
	}
}
