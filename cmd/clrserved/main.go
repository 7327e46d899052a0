// Command clrserved is the fleet decision service: it runs the
// design-time flow once, then serves the resulting (pruned) database
// to many devices over HTTP/JSON. Each registered device gets its own
// runtime manager; QoS events arrive as POST requests and return the
// decision together with the imperative reconfiguration plan. High-
// rate submitters can coalesce events into POST /v1/devices:decide-batch
// (optionally on the compact binary codec, Content-Type
// application/x-clr-bin) — same per-device ordering and exactly-once
// replay semantics, a fraction of the per-event cost.
//
// Usage:
//
//	clrserved -addr :8080 -tasks 30 -max-points 8
//	clrserved -jpeg -addr 127.0.0.1:9000
//	clrserved -loadgen -devices 64 -events 100
//	clrserved -addr :8080 -evolve -evolve-interval 30s
//	clrserved -addr :8080 -cohort -cohort-epoch 256 -cohort-gamma 0.8
//	clrserved -addr :8080 -cluster-node node-0 \
//	    -cluster-peers node-0=http://h0:8080,node-1=http://h1:8080
//
// With -loadgen the command boots the server on a loopback port,
// drives it with the built-in load generator and prints the latency
// report instead of serving forever.
//
// With -cluster-node the process joins a consistent-hash ring over the
// static peer list: any node accepts any device's request and forwards
// (or, with -cluster-redirect, redirects) it to the owner, peer health
// drives suspicion, and SIGTERM drains every owned device to the
// survivors before the listener closes.
//
// With -evolve the process runs Continuous ReD: a background worker
// periodically folds the decision journal's observed QoS-event
// distribution into a re-search of the "red" database, shadow-scores
// every decision against the candidate, and hot-swaps it in once the
// shadow window's agreement clears -evolve-threshold (in cluster mode,
// only once every alive peer is on the same version).
//
// With -cohort the process runs the cohort-AuRA worker: on a
// deterministic epoch schedule it aggregates the decision journal into
// a shared value table, versions it, and publishes it so cold-start
// devices inherit the cohort's learned values (in cluster mode, only
// once every alive peer holds the same table; a lagging node adopts
// the winner's table instead).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // handlers land on DefaultServeMux, served only with -pprof
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"clrdse/internal/cluster"
	"clrdse/internal/cohort"
	"clrdse/internal/control"
	"clrdse/internal/core"
	"clrdse/internal/dse"
	"clrdse/internal/evolve"
	"clrdse/internal/fleet"
	"clrdse/internal/fleet/client"
	"clrdse/internal/ga"
	"clrdse/internal/obs"
	"clrdse/internal/platform"
	"clrdse/internal/taskgraph"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		shards   = flag.Int("shards", fleet.DefaultShards, "device registry shard count")
		grace    = flag.Duration("grace", 10*time.Second, "shutdown drain grace period")
		body     = flag.Int64("max-body", 1<<20, "request body cap in bytes")
		decideTO = flag.Duration("decide-timeout", 0, "per-decision deadline before degraded fallback (0 = default)")
		pprofA   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty = off)")
		jcap     = flag.Int("journal-cap", 0, "per-shard decision journal capacity (0 = default 4096)")
		traceSd  = flag.Int64("trace-seed", 0, "trace-ID minter seed for requests without X-Clr-Trace-Id")

		clNode     = flag.String("cluster-node", "", "this node's cluster ID (enables cluster mode; must appear in -cluster-peers)")
		clPeers    = flag.String("cluster-peers", "", "static membership as id=url pairs, comma-separated (e.g. node-0=http://h0:8080,node-1=http://h1:8080)")
		clVNodes   = flag.Int("cluster-vnodes", 0, "virtual nodes per member on the ring (0 = default)")
		clRedirect = flag.Bool("cluster-redirect", false, "answer non-owned device requests with 307 + X-Clr-Redirect instead of proxying")
		clProbe    = flag.Duration("cluster-probe", 2*time.Second, "peer health-probe interval (0 = membership changes only via POST /v1/cluster/membership)")
		clSuspect  = flag.Int("cluster-suspect", 3, "consecutive probe failures before a peer is marked dead")
		clToken    = flag.String("cluster-token", "", "shared secret gating POST /v1/cluster/handoff and /v1/cluster/membership (empty leaves them open; set it whenever the listener is reachable beyond the cluster network)")

		evolveOn  = flag.Bool("evolve", false, "run the Continuous-ReD worker: re-search the \"red\" database against the observed QoS-event distribution, shadow-validate and hot-swap")
		evolveIv  = flag.Duration("evolve-interval", time.Minute, "evolve: tick period of the background worker")
		evolveThr = flag.Float64("evolve-threshold", 0.95, "evolve: shadow-window agreement fraction required before cutover")

		cohortOn    = flag.Bool("cohort", false, "run the cohort-AuRA worker: aggregate the \"red\" journal into a shared value table on the epoch schedule and publish it for cold-start inheritance")
		cohortEpoch = flag.Int("cohort-epoch", 0, "cohort: base eligible-event count per publishing epoch (0 = default 256; jittered deterministically per epoch)")
		cohortGamma = flag.Float64("cohort-gamma", 0.8, "cohort: AuRA discount the shared table is learned under (only devices registered with the same gamma inherit it)")
		cohortIv    = flag.Duration("cohort-interval", time.Minute, "cohort: tick period of the background worker")

		tasks   = flag.Int("tasks", 30, "synthetic application size")
		jpeg    = flag.Bool("jpeg", false, "use the JPEG encoder of Figure 2b")
		seed    = flag.Int64("seed", 1, "root seed for the design-time flow")
		pop     = flag.Int("pop", 60, "stage-1 GA population")
		gens    = flag.Int("gens", 40, "stage-1 GA generations")
		maxPts  = flag.Int("max-points", 0, "prune the served database to this storage budget (0 = keep all)")
		serveBD = flag.Bool("serve-based", true, "additionally serve the stage-1 Pareto database as \"based\"")

		loadgen = flag.Bool("loadgen", false, "boot on loopback, run the load generator, print the report and exit")
		devices = flag.Int("devices", 32, "loadgen: simulated device count")
		events  = flag.Int("events", 50, "loadgen: QoS events per device")
		meanMs  = flag.Float64("mean-ms", 0, "loadgen: mean Exp inter-arrival sleep in ms (0 = closed loop)")
		prc     = flag.Float64("prc", 0.5, "loadgen: per-device pRC")
		gamma   = flag.Float64("gamma", 0, "loadgen: per-device AuRA discount (0 = uRA)")
		lgSeed  = flag.Int64("loadgen-seed", 7, "loadgen: event stream seed")
	)
	flag.Parse()

	// One trace-stamping logger for the whole process: the server
	// shares its handler shape, so request lines, decision journals
	// and command diagnostics correlate on trace_id.
	log := obs.NewLogger(os.Stderr)

	plat := platform.Default()
	var app *taskgraph.Graph
	var err error
	if *jpeg {
		app = taskgraph.JPEGEncoder(plat)
	} else {
		app, err = taskgraph.Generate(taskgraph.GenParams{Seed: *seed, NumTasks: *tasks}, plat)
		if err != nil {
			fatal(err)
		}
	}
	log.Info("application loaded", "name", app.Name, "tasks", len(app.Tasks), "edges", len(app.Edges))

	log.Info("design-time exploration starting")
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
	db := sys.Database()
	if *maxPts > 0 && db.Len() > *maxPts {
		pruned, err := dse.Prune(db, *maxPts, false)
		if err != nil {
			fatal(err)
		}
		log.Info("database pruned to storage budget", "from", db.Len(), "to", pruned.Len())
		db = pruned
	}
	dbs := []fleet.NamedDatabase{{Name: "red", DB: db, Space: sys.Problem.Space}}
	if *serveBD {
		dbs = append(dbs, fleet.NamedDatabase{Name: "based", DB: sys.BaseD, Space: sys.Problem.Space})
	}
	for _, n := range dbs {
		minS, maxS, minF, maxF := n.Envelope()
		log.Info("database ready", "name", n.Name, "points", n.DB.Len(),
			"makespan_min_ms", minS, "makespan_max_ms", maxS,
			"reliability_min", minF, "reliability_max", maxF)
	}

	cfg := fleet.ServerConfig{
		Databases:     dbs,
		Shards:        *shards,
		MaxBodyBytes:  *body,
		ShutdownGrace: *grace,
		DecideTimeout: *decideTO,
		JournalCap:    *jcap,
		TraceSeed:     *traceSd,
		Logger:        log,
	}
	if *loadgen {
		// Per-request log lines would swamp the latency report.
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	srv, err := fleet.NewServer(cfg)
	if err != nil {
		fatal(err)
	}

	// Cluster mode: wrap the fleet handler with the ring router so any
	// node accepts any device's request, and start the health prober.
	var node *cluster.Node
	if *clNode != "" {
		peers, err := parsePeers(*clPeers)
		if err != nil {
			fatal(err)
		}
		node, err = cluster.New(cluster.Config{
			Self:          *clNode,
			Peers:         peers,
			VNodes:        *clVNodes,
			Redirect:      *clRedirect,
			TraceSeed:     *traceSd + 1, // distinct stream from the fleet server's minter
			ProbeInterval: *clProbe,
			SuspectAfter:  *clSuspect,
			AuthToken:     *clToken,
			Logger:        cfg.Logger,
		}, srv)
		if err != nil {
			fatal(err)
		}
		srv.Wrap(node.Middleware)
		if *clToken == "" {
			log.Warn("cluster handoff/membership endpoints are unauthenticated; set -cluster-token if the listener is reachable beyond the cluster network")
		}
		log.Info("cluster mode enabled", "self", *clNode, "peers", len(peers),
			"ring_version", node.Ring().Version(), "redirect", *clRedirect)
	}

	if *pprofA != "" {
		// The fleet API runs on its own mux, so the pprof handlers on
		// DefaultServeMux are reachable only through this side listener
		// — keep it on loopback in production.
		go func() {
			log.Info("pprof listening", "url", "http://"+*pprofA+"/debug/pprof/")
			if err := http.ListenAndServe(*pprofA, nil); err != nil {
				log.Error("pprof server failed", "err", err)
			}
		}()
	}

	if *loadgen {
		runLoadgen(srv, client.LoadParams{
			Devices:            *devices,
			EventsPerDevice:    *events,
			PRC:                *prc,
			Gamma:              *gamma,
			MeanInterArrivalMs: *meanMs,
			Seed:               *lgSeed,
		})
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *evolveOn {
		w := &evolve.Worker{
			Loop:     control.Loop{Interval: *evolveIv, Logger: log},
			Registry: srv.Registry(),
			Database: "red",
			Proposer: &evolve.Proposer{
				Problem:  sys.Problem,
				StageOne: ga.Params{PopSize: *pop, Generations: *gens},
				ReD: dse.ReDParams{
					GA: ga.Params{PopSize: *pop / 2, Generations: *gens / 2},
				},
				Seed: *seed,
			},
			Threshold: *evolveThr,
		}
		if node != nil {
			// In a cluster a handoff bundle is only importable at the
			// importer's active version, so no node cuts over until every
			// alive peer reports the same version state — and a node that
			// finds a peer already ahead adopts the peer's database
			// (catch-up) instead of deferring forever.
			w.Agreement = node.VersionsAgree
			w.Reconcile = node.CatchUpVersions
		}
		go w.Run(ctx)
		log.Info("continuous ReD enabled", "db", "red",
			"interval", *evolveIv, "threshold", *evolveThr)
	}
	if *cohortOn {
		w := &cohort.Worker{
			Loop:     control.Loop{Interval: *cohortIv, Logger: log},
			Registry: srv.Registry(),
			Database: "red",
			Gamma:    *cohortGamma,
			Schedule: cohort.Schedule{Seed: *seed, BaseEvents: *cohortEpoch},
		}
		if node != nil {
			// A value table seeds agents fleet-wide, so no node publishes
			// until every alive peer holds the same table — and a node
			// that finds a peer already ahead adopts the peer's table
			// (catch-up) instead of deferring forever.
			w.Agreement = node.VTablesAgree
			w.Reconcile = node.CatchUpVTables
		}
		go w.Run(ctx)
		log.Info("cohort AuRA enabled", "db", "red", "gamma", *cohortGamma,
			"epoch_base", *cohortEpoch, "interval", *cohortIv)
	}
	if node != nil {
		go node.Run(ctx, *clProbe)
		// SIGTERM drains before the listener closes: every owned device
		// is handed to the survivors, so a rolling restart loses no
		// state and no sequence numbers.
		serveCtx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			<-ctx.Done()
			dctx, dcancel := context.WithTimeout(context.Background(), *grace)
			if err := node.Leave(dctx); err != nil {
				log.Warn("cluster drain incomplete", "err", err)
			}
			dcancel()
			cancel()
		}()
		if err := srv.Run(serveCtx, *addr); err != nil {
			fatal(err)
		}
		return
	}
	if err := srv.Run(ctx, *addr); err != nil {
		fatal(err)
	}
}

// parsePeers parses the -cluster-peers value: comma-separated id=url
// pairs.
func parsePeers(s string) ([]cluster.Peer, error) {
	if s == "" {
		return nil, fmt.Errorf("cluster mode needs -cluster-peers (id=url, comma-separated)")
	}
	var peers []cluster.Peer
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		id, url, ok := strings.Cut(pair, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad -cluster-peers entry %q, want id=url", pair)
		}
		peers = append(peers, cluster.Peer{ID: id, URL: url})
	}
	return peers, nil
}

// runLoadgen boots the server on an ephemeral loopback port, fires
// the load at it and prints the report.
func runLoadgen(srv *fleet.Server, p client.LoadParams) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	p.BaseURL = "http://" + l.Addr().String()
	fmt.Printf("loadgen: %d devices x %d events against %s\n", p.Devices, p.EventsPerDevice, p.BaseURL)
	report, err := client.RunLoad(p)
	if err != nil {
		fatal(err)
	}
	fmt.Println(report)
	if err := srv.Shutdown(); err != nil {
		fatal(err)
	}
	<-done
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clrserved:", err)
	os.Exit(1)
}
