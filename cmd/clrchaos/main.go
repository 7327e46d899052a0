// Command clrchaos soak-tests the fleet decision service. It runs the
// design-time flow once, then drives a fleet of simulated devices
// through the same QoS event scripts twice with soak.Run: a
// fault-free single-server reference pass, and a soak pass under
// attack. By default the attack is deterministic fault injection on
// one server (dropped requests, latency spikes, truncated and mangled
// response bodies, server-side rejections, stalled and corrupted
// decision paths), which the resilient client masks with retries.
// With -cluster N it is a seeded kill/restart schedule on an N-node
// in-process cluster. Either way the soak asserts:
//
//  1. every QoS event is answered, byte-identical to the fault-free
//     reference;
//  2. no device state is lost: every device sits on exactly one live
//     node having decided exactly its events;
//  3. the decision journal is complete: once identical migrated
//     copies are removed, every (device, seq) has exactly one
//     non-degraded entry and nothing outside the script does, every
//     entry carries a valid trace ID, and degraded entries appear only
//     when faults are injected;
//  4. a fault-injecting run injected at least one fault.
//
// Both passes are seeded (-spec-seed, -chaos-seed); the same seeds
// reproduce the identical fault or kill schedule. The command exits
// non-zero if any invariant is violated.
//
// Usage:
//
//	clrchaos -devices 8 -events 40
//	clrchaos -intensity 2 -chaos-seed 99 -decide-timeout 100ms
//	clrchaos -cluster 3 -chaos-seed 7         # kill/restart instead of faults
//	clrchaos -journal-out /tmp/journal.json   # dump the soak pass's journal
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"clrdse/internal/chaos"
	"clrdse/internal/core"
	"clrdse/internal/dse"
	"clrdse/internal/fleet"
	"clrdse/internal/fleet/fleettest"
	"clrdse/internal/fleet/fleettest/soak"
	"clrdse/internal/ga"
	"clrdse/internal/obs"
	"clrdse/internal/platform"
	"clrdse/internal/taskgraph"
)

func main() {
	var (
		tasks = flag.Int("tasks", 20, "synthetic application size")
		seed  = flag.Int64("seed", 51, "design-time root seed")
		pop   = flag.Int("pop", 28, "stage-1 GA population")
		gens  = flag.Int("gens", 12, "stage-1 GA generations")

		devices   = flag.Int("devices", 8, "simulated device count")
		events    = flag.Int("events", 40, "QoS events per device")
		specSeed  = flag.Int64("spec-seed", 7, "QoS event script seed")
		chaosSeed = flag.Int64("chaos-seed", 99, "fault schedule seed")
		intensity = flag.Float64("intensity", 1, "scales every fault probability")

		attempts = flag.Int("attempts", 6, "client attempts per call")
		attemptT = flag.Duration("attempt-timeout", 2*time.Second, "client per-attempt deadline")
		decideTO = flag.Duration("decide-timeout", 250*time.Millisecond, "server per-decision deadline")
		rounds   = flag.Int("max-rounds", 64, "driver re-submissions per event before giving up")
		jout     = flag.String("journal-out", "", "write the soak pass's decision journal JSON here (always when set, plus on any violation)")

		clusterN = flag.Int("cluster", 0, "cluster soak mode: run an N-node ring and attack membership (seeded kill/restart) instead of the transport")
	)
	flag.Parse()

	log := obs.NewLogger(os.Stderr)

	plat := platform.Default()
	app, err := taskgraph.Generate(taskgraph.GenParams{Seed: *seed, NumTasks: *tasks}, plat)
	if err != nil {
		fatal(err)
	}
	log.Info("design-time exploration starting", "tasks", len(app.Tasks))
	sys, err := core.Build(app, core.Options{
		Seed:     *seed,
		StageOne: ga.Params{PopSize: *pop, Generations: *gens},
		ReD: dse.ReDParams{
			GA: ga.Params{PopSize: *pop / 2, Generations: *gens / 2},
		},
	})
	if err != nil {
		fatal(err)
	}

	cfg := soak.Config{
		Databases:      []fleet.NamedDatabase{{Name: "red", DB: sys.Database(), Space: sys.Problem.Space}},
		Devices:        *devices,
		Events:         *events,
		SpecSeed:       *specSeed,
		Attempts:       *attempts,
		AttemptTimeout: *attemptT,
		DecideTimeout:  *decideTO,
	}
	if *clusterN > 1 {
		cfg.Nodes, cfg.KillSeed, cfg.Gamma = *clusterN, *chaosSeed, 0.9
		log.Info("cluster soak starting", "nodes", *clusterN, "devices", *devices, "events", *events, "kill_seed", *chaosSeed)
	} else {
		cfg.Faults = chaos.New(chaos.Config{
			Seed:              *chaosSeed,
			PDropRequest:      0.04 * *intensity,
			PLatency:          0.04 * *intensity,
			PDropResponse:     0.04 * *intensity,
			PTruncateResponse: 0.03 * *intensity,
			PMangleResponse:   0.03 * *intensity,
			LatencyMin:        time.Millisecond,
			LatencyMax:        10 * time.Millisecond,
			PReject:           0.05 * *intensity,
			PServerLatency:    0.04 * *intensity,
			PStall:            0.04 * *intensity,
			PCorrupt:          0.04 * *intensity,
			StallMin:          *decideTO * 2,
			StallMax:          *decideTO * 4,
		})
		cfg.Rounds = *rounds
		log.Info("chaos soak starting", "devices", *devices, "events", *events, "chaos_seed", *chaosSeed)
	}
	ok, err := run(os.Stdout, cfg, *jout)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

// run runs the soak cfg describes and prints its schedule, fault and
// retry counts, violations and verdict to w. The soak pass's journal
// goes to jout when set, and on any violation (to
// clrchaos-journal.json when jout is empty).
func run(w io.Writer, cfg soak.Config, jout string) (ok bool, err error) {
	res, err := soak.Run(cfg)
	if err != nil {
		return false, err
	}
	if len(res.Schedule) > 0 {
		fmt.Fprintf(w, "membership schedule (seed %d):\n", cfg.KillSeed)
		for _, ev := range res.Schedule {
			verb := "kill"
			if ev.Restart {
				verb = "restart"
			}
			fmt.Fprintf(w, "  round %-3d %s node-%d\n", ev.Round, verb, ev.Node)
		}
	}
	if inj := cfg.Faults; inj != nil {
		fmt.Fprintf(w, "faults injected:   %d\n", inj.Injected())
		for _, k := range []chaos.Kind{
			chaos.DropRequest, chaos.Latency, chaos.DropResponse,
			chaos.TruncateResponse, chaos.MangleResponse,
			chaos.Reject, chaos.ServerLatency, chaos.Stall, chaos.Corrupt,
		} {
			if n := inj.Count(k); n > 0 {
				fmt.Fprintf(w, "  %-18s %d\n", k.String()+":", n)
			}
		}
	}
	fmt.Fprintf(w, "client retries:    %d\n", res.Client.Retries)
	fmt.Fprintf(w, "breaker rejects:   %d\n", res.Client.BreakerRejects)
	fmt.Fprintf(w, "degraded retried:  %d\n", res.Client.DegradedRetries)
	fmt.Fprintf(w, "redirects:         %d\n", res.Client.Redirects)
	fmt.Fprintf(w, "server replays:    %d\n", res.Replays)
	fmt.Fprintf(w, "server degraded:   %d\n", res.Degraded)
	fmt.Fprintf(w, "journal entries:   %d\n", len(res.Journal))
	for _, v := range res.Violations {
		fmt.Fprintf(w, "INVARIANT VIOLATED: %s\n", v)
	}

	if jout != "" || len(res.Violations) > 0 {
		if jout == "" {
			jout = "clrchaos-journal.json"
		}
		if err := fleettest.WriteArtifact(jout, res.Journal); err != nil {
			fmt.Fprintf(w, "journal dump failed: %v\n", err)
		} else {
			fmt.Fprintf(w, "decision journal written to %s\n", jout)
		}
	}
	if len(res.Violations) > 0 {
		fmt.Fprintf(w, "\nFAIL: %d invariant violations\n", len(res.Violations))
		return false, nil
	}
	fmt.Fprintf(w, "\nOK: %d decisions byte-identical to the fault-free reference, no device lost, each explained exactly once in the journal\n",
		cfg.Devices*cfg.Events)
	return true, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clrchaos:", err)
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "clrchaos: consider raising -attempt-timeout or -max-rounds")
	}
	os.Exit(1)
}
