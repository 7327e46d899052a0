// Command perfbench is the repository's benchmark: three seeded
// workloads driven against the system through its Go API and its HTTP
// surface, with end-to-end metrics from untraced runs, a per-layer
// split from a separate traced run, and reference oracles that check
// every output. See README.md in this directory.
//
//	perfbench --workload serve-single --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metricSpec declares one reported metric.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics an untraced run (--trace 0) reports on
// every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"p50_us", "us"},
	{"p90_us", "us"},
	{"cpu_us_per_op", "us"},
	{"live_heap_mb", "MB"},
	{"drc_ms_per_event", "ms"},
	{"energy_mj_per_event", "mJ"},
	{"hv", "1"},
}

// perLayer are the metrics a traced run (--trace 1) reports on every
// workload. A layer a workload never calls reports 0.
var perLayer = []metricSpec{
	// The 99th percentile of the run's untraced share: on serve-single
	// it moves by a third from run to run, too much to gate.
	{"p99_us", "us"},
	// fleet/client, net/http and the fleet server (serve-*).
	{"client.self_us", "us"},
	{"transport.self_us", "us"},
	{"fleet.edge_self_us", "us"},
	{"fleet.decide_us", "us"},
	{"fleet.registry_self_us", "us"},
	{"fleet.register_us", "us"},
	{"fleet.deregister_us", "us"},
	{"fleet.fanout", "1"},
	// runtime decide stages (serve-*).
	{"runtime.filter_us", "us"},
	{"runtime.score_us", "us"},
	{"runtime.switch_us", "us"},
	{"runtime.agent_update_us", "us"},
	// Counts and ratios (serve-*).
	{"runtime.candidates_per_event", "count"},
	{"runtime.trigger_skip_share", "1"},
	{"runtime.reconfig_share", "1"},
	{"evolve.shadow_divergence_share", "1"},
	{"cohort.priors_applied", "count"},
	{"client.retries", "count"},
	{"events_per_call", "count"},
	// Design-time layers (design).
	{"taskgraph.generate_ms", "ms"},
	{"dse.base_ms", "ms"},
	{"dse.red_ms", "ms"},
	{"runtime.pretrain_ms", "ms"},
	{"runtime.simulate_ms", "ms"},
	{"pareto.hv_ms", "ms"},
	{"dse.evals", "count"},
	{"dse.us_per_eval", "us"},
	{"dse.distinct_eval_share", "1"},
	{"dse.db_points", "count"},
	{"dse.red_extras", "count"},
	{"runtime.feasibility_checks", "count"},
	// Go allocator and GC (all).
	{"go.allocs_per_op", "count"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_share", "1"},
	// Reconciliation (all).
	{"traced_mean_us", "us"},
	{"residual_us", "us"},
	{"residual_ms", "ms"},
	{"residual_share", "1"},
	{"trace_overhead_share", "1"},
}

// setups is how many times a run sets its workload up; setup_s is the
// median, which keeps one slow set-up from moving the gated figure.
const setups = 5

// traceDir receives the traced runs' spans, under the checkout.
var traceDir = filepath.Join(".bench_build", "traces")

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// setups is how many times set-up runs; setup_s is their median
	// and the last one is measured.
	setups int
	// traceDir receives the traced run's spans.
	traceDir string
}

// outcome is what a workload reports besides its metrics.
type outcome struct {
	attempted, failed int64
	// problems are oracle findings that are not tied to one op.
	problems []string
}

// workload runs one named workload. Why each exists is recorded in
// BENCHMARK.json and README.md.
type workload struct {
	name string
	run  func(o options) (map[string]float64, outcome, error)
}

var workloads = []workload{
	{"serve-single", func(o options) (map[string]float64, outcome, error) { return runServe(singleConfig, o) }},
	{"serve-batch", func(o options) (map[string]float64, outcome, error) { return runServe(batchConfig, o) }},
	{"design", func(o options) (map[string]float64, outcome, error) { return runDesign(designCfg, o) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildReport checks that the workload produced exactly the declared
// metrics, each a finite number, and assembles the result line.
func buildReport(vals map[string]float64, out outcome, specs []metricSpec) (report, error) {
	r := report{
		Correct:   out.failed == 0 && len(out.problems) == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok {
			return report{}, fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return report{}, fmt.Errorf("metric %s is not finite: %v", s.name, v)
		}
		r.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	if len(vals) != len(specs) {
		for name := range vals {
			if _, ok := r.Metrics[name]; !ok {
				return report{}, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return r, nil
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: serve-single, serve-batch or design")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 30, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced, per-layer variant")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, setups: setups, traceDir: traceDir}
	start := time.Now()
	vals, out, err := w.run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	rep, err := buildReport(vals, out, specs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.name, p)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d finished in %.1fs\n", w.name, o.seed, time.Since(start).Seconds())
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// warnTail notes on standard error when a reported percentile has
// fewer than minBeyond samples beyond it at this run's sample count.
func warnTail(metric string, n, permille int) {
	if !supported(n, permille) {
		fmt.Fprintf(os.Stderr, "perfbench: %s rests on %d samples, %d beyond it (want %d)\n", metric, n, beyond(n, permille), minBeyond)
	}
}

// fmtTracePath is where a traced run of the workload writes its spans.
func fmtTracePath(o options, name string) string {
	return filepath.Join(o.traceDir, name+".tsv")
}
