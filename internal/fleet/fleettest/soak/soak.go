// Package soak is the fleet's one soak harness: a fleet of scripted
// devices is driven twice, a fault-free reference pass on one server
// and then a soak pass under attack, and one checker judges both. The
// attack is either seeded fault injection on one server (transport
// drops, corrupted bodies, rejections, stalled and corrupted decide
// paths) or a seeded kill/restart schedule on an N-node
// fleettest.Cluster. The harness returns errors rather than taking a
// testing.TB, so cmd/clrchaos runs the same soak as the chaos and
// cluster soak tests. It sits beside fleettest rather than in it
// because it drives the resilient client, whose own tests use
// fleettest.
package soak

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"clrdse/internal/chaos"
	"clrdse/internal/fleet"
	"clrdse/internal/fleet/client"
	"clrdse/internal/fleet/fleettest"
	"clrdse/internal/rng"
	"clrdse/internal/runtime"
)

// Config sizes one soak.
type Config struct {
	// Databases are the decision bases every server carries; every
	// device is registered on the first.
	Databases []fleet.NamedDatabase
	// Devices and Events size the fleet and each device's script.
	Devices, Events int
	// SpecSeed roots the event scripts and the client's retry jitter.
	SpecSeed int64
	// Gamma is every device's AuRA discount (0 registers uRA devices).
	Gamma float64
	// Nodes > 1 runs the soak pass on an N-node cluster under the
	// kill/restart schedule KillSeed derives; otherwise the soak pass
	// runs on one server.
	Nodes    int
	KillSeed int64
	// Faults, when set, injects faults into the single-server soak
	// pass. Only then is an event re-submitted, up to Rounds times,
	// are degraded answers retried and are degraded journal entries
	// allowed.
	Faults *chaos.Injector
	Rounds int
	// Attempts and AttemptTimeout bound the client's tries per call.
	Attempts       int
	AttemptTimeout time.Duration
	// DecideTimeout is every server's per-decision budget (0 selects
	// the fleet default).
	DecideTimeout time.Duration
	// TraceSeed derives the servers' trace minter seeds.
	TraceSeed int64
}

// KillEvent is one scheduled membership change, applied at the
// barrier before its round.
type KillEvent struct {
	Round   int
	Node    int
	Restart bool
}

// Result is a soak's outcome.
type Result struct {
	// Schedule is the kill/restart plan the soak pass ran (empty on
	// one server).
	Schedule []KillEvent
	// Violations lists every invariant either pass broke.
	Violations []string
	// Journal is the soak pass's union decision journal.
	Journal []fleettest.JournalEntry
	// Client counts the soak pass client's resilience activity.
	Client client.Stats
	// Replays and Degraded sum the soak pass devices' server-side
	// counters.
	Replays, Degraded int64
}

// Run runs the reference pass and the soak pass and checks both.
// It returns an error only when the harness cannot run (a listener,
// a registration, a kill or a restart fails); every broken invariant
// is in the result's Violations.
func Run(cfg Config) (*Result, error) {
	if cfg.Faults != nil && cfg.Nodes > 1 {
		return nil, errors.New("soak: faults are injected into a single-server soak only")
	}
	scripts := make([][]runtime.QoSSpec, cfg.Devices)
	for d := range scripts {
		scripts[d] = fleettest.Script(cfg.Databases[0].DB, cfg.SpecSeed+int64(d), cfg.Events)
	}
	res := &Result{}
	if cfg.Nodes > 1 {
		res.Schedule = killSchedule(cfg.KillSeed, cfg.Events, cfg.Nodes)
	}
	ref, _, err := runPass(cfg, scripts, 1, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	got, stats, err := runPass(cfg, scripts, cfg.Nodes, res.Schedule, cfg.Faults)
	if err != nil {
		return nil, fmt.Errorf("soak pass: %w", err)
	}
	for _, v := range check(ref.answers, ref, false) {
		res.Violations = append(res.Violations, "reference pass: "+v)
	}
	for _, v := range check(ref.answers, got, cfg.Faults != nil) {
		res.Violations = append(res.Violations, "soak pass: "+v)
	}
	if cfg.Faults != nil && cfg.Faults.Injected() == 0 {
		res.Violations = append(res.Violations, "soak pass injected no faults; the soak tested nothing")
	}
	res.Journal, res.Client = got.journal, stats
	for _, h := range got.nodes {
		for _, st := range h.devices {
			res.Replays += st.Replays
			res.Degraded += st.Degraded
		}
	}
	return res, nil
}

// killSchedule derives the kill/restart plan from the seed: up to two
// disruptions, each a kill of a seeded node followed by its restart a
// few rounds later, never touching node 0 (the client's first ring
// fetch target). Events that would land past the last round are
// dropped. Pure function of (seed, rounds, nodes); nodes must be > 1.
func killSchedule(seed int64, rounds, nodes int) []KillEvent {
	src := rng.New(seed)
	quarter := max(rounds/4, 1)
	k1 := 1 + src.Intn(nodes-1)
	r1 := 1 + src.Intn(quarter)
	r1back := r1 + 2 + src.Intn(quarter)
	k2 := 1 + src.Intn(nodes-1)
	r2 := r1back + 1 + src.Intn(quarter)
	r2back := r2 + 1 + src.Intn(max(rounds-r2-1, 1))
	var evs []KillEvent
	for _, ev := range []KillEvent{
		{Round: r1, Node: k1},
		{Round: r1back, Node: k1, Restart: true},
		{Round: r2, Node: k2},
		{Round: r2back, Node: k2, Restart: true},
	} {
		if ev.Round >= rounds {
			break
		}
		evs = append(evs, ev)
	}
	return evs
}

func deviceID(d int) string { return fmt.Sprintf("soak-%d", d) }

// holding is one live node's registry after a pass: the decision
// stats of every device it holds.
type holding struct {
	node    string
	devices map[string]fleet.DeviceStats
}

// pass is what one soak pass leaves behind.
type pass struct {
	// answers[d][i] is device d's canonical answer to event i+1, ""
	// when the event was never answered; errs[d] is why device d
	// stopped short of its script.
	answers [][]string
	errs    []error
	// nodes are the live nodes' registries; journal is their union
	// decision journal.
	nodes   []holding
	journal []fleettest.JournalEntry
}

// runPass boots the fleet a pass runs on (a cluster of nodes > 1
// members, else one server with faults injected when inj is set),
// registers the devices, drives their scripts and snapshots the live
// nodes.
func runPass(cfg Config, scripts [][]runtime.QoSSpec, nodes int, sched []KillEvent, inj *chaos.Injector) (*pass, client.Stats, error) {
	ctx := context.Background()
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = cfg.Devices
	ccfg := client.Config{
		Transport:      tr,
		MaxAttempts:    cfg.Attempts,
		AttemptTimeout: cfg.AttemptTimeout,
		JitterSeed:     cfg.SpecSeed,
		RetryDegraded:  inj != nil,
		// Faults and kills are deliberate; an eager breaker would only
		// add rejection noise and delay the re-resolution under test.
		BreakerThreshold: 1 << 20,
	}
	var clus *fleettest.Cluster
	var single *fleettest.ClusterNode
	if nodes > 1 {
		var err error
		clus, err = fleettest.NewCluster(fleettest.ClusterOptions{
			Nodes: nodes, Databases: cfg.Databases,
			DecideTimeout: cfg.DecideTimeout, TraceSeed: cfg.TraceSeed,
		})
		if err != nil {
			return nil, client.Stats{}, err
		}
		defer clus.Close()
		ccfg.Targets = clus.URLs()
	} else {
		var stop func()
		var err error
		single, stop, err = serveOne(cfg, inj)
		if err != nil {
			return nil, client.Stats{}, err
		}
		defer stop()
		ccfg.BaseURL = single.URL
		if inj != nil {
			ccfg.Transport = &chaos.Transport{Injector: inj, Base: tr}
		}
	}
	c := client.New(ccfg)
	if clus != nil {
		if err := c.RefreshRing(ctx); err != nil {
			return nil, client.Stats{}, err
		}
	}
	boot := fleettest.LooseSpec(cfg.Databases[0].DB)
	for d := range scripts {
		_, err := c.Register(ctx, fleet.RegisterRequest{
			ID:       deviceID(d),
			Database: cfg.Databases[0].Name,
			PRC:      0.5,
			Gamma:    cfg.Gamma,
			Trigger:  "on-violation",
			Initial:  fleet.QoSSpecJSON{SMaxMs: boot.SMaxMs, FMin: boot.FMin},
		})
		if err != nil {
			return nil, client.Stats{}, fmt.Errorf("register %s: %w", deviceID(d), err)
		}
	}
	tries := 1
	if inj != nil {
		tries = max(cfg.Rounds, 1)
	}
	answers, errs, err := drive(ctx, c, clus, scripts, sched, tries)
	if err != nil {
		return nil, client.Stats{}, err
	}
	// Snapshot the live nodes before the deferred teardown: the
	// registries and their journals die with their servers.
	live := []*fleettest.ClusterNode{single}
	if clus != nil {
		live = live[:0]
		for i, cn := range clus.Nodes {
			if clus.Alive(i) {
				live = append(live, cn)
			}
		}
	}
	p := &pass{answers: answers, errs: errs}
	for _, cn := range live {
		reg := cn.Srv.Registry()
		h := holding{node: cn.ID, devices: make(map[string]fleet.DeviceStats)}
		for _, id := range reg.DeviceIDs() {
			if info, err := reg.Get(id); err == nil {
				h.devices[id] = info.Stats
			}
		}
		p.nodes = append(p.nodes, h)
		for _, e := range reg.Decisions("", 0) {
			p.journal = append(p.journal, fleettest.JournalEntry{Node: cn.ID, Entry: e})
		}
	}
	return p, c.Stats(), nil
}

// serveOne boots one fleet server on a loopback listener, wrapped in
// inj's decide hook and middleware when inj is set, and returns it as a
// node without the cluster layer (Node nil) plus its stop function.
func serveOne(cfg Config, inj *chaos.Injector) (*fleettest.ClusterNode, func(), error) {
	scfg := fleet.ServerConfig{
		Databases:     cfg.Databases,
		DecideTimeout: cfg.DecideTimeout,
		TraceSeed:     cfg.TraceSeed,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if inj != nil {
		scfg.DecideHook = inj.DecideHook()
	}
	srv, err := fleet.NewServer(scfg)
	if err != nil {
		return nil, nil, err
	}
	h := srv.Handler()
	if inj != nil {
		h = inj.Middleware(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		//lint:allow errdrop Serve returns ErrServerClosed on teardown; a real accept error fails the soak through the dead port
		hs.Serve(ln)
	}()
	stop := func() {
		//lint:allow errdrop teardown after the pass's snapshot; nothing is left to lose
		hs.Close()
		<-done
	}
	return &fleettest.ClusterNode{ID: "node-0", URL: "http://" + ln.Addr().String(), Srv: srv}, stop, nil
}

// drive runs every device's script, each device concurrently with
// the others. The schedule's kills and restarts land at barriers: all
// devices finish the rounds before an event's round, the event is
// applied (on clus), and traffic resumes. An event is submitted under
// its own sequence number up to tries times, until a decision lands,
// so the server decides it at most once; a device whose event stays
// unanswered stops there, and errs[d] says why.
func drive(ctx context.Context, c *client.Client, clus *fleettest.Cluster, scripts [][]runtime.QoSSpec, sched []KillEvent, tries int) ([][]string, []error, error) {
	answers := make([][]string, len(scripts))
	errs := make([]error, len(scripts))
	rounds := 0
	for d, script := range scripts {
		answers[d] = make([]string, len(script))
		rounds = max(rounds, len(script))
	}
	barriers := []int{0}
	for _, ev := range sched {
		if ev.Round > barriers[len(barriers)-1] {
			barriers = append(barriers, ev.Round)
		}
	}
	barriers = append(barriers, rounds)
	for i := 0; i+1 < len(barriers); i++ {
		from, to := barriers[i], barriers[i+1]
		for _, ev := range sched {
			if ev.Round != from {
				continue
			}
			var err error
			if ev.Restart {
				err = clus.Restart(ctx, ev.Node)
			} else {
				err = clus.Kill(ctx, ev.Node)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("round %d: %w", from, err)
			}
		}
		var wg sync.WaitGroup
		for d, script := range scripts {
			if errs[d] != nil {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := from; r < min(to, len(script)); r++ {
					wire := fleet.QoSSpecJSON{SMaxMs: script[r].SMaxMs, FMin: script[r].FMin}
					var dec *fleet.DecisionJSON
					var err error
					for range tries {
						if dec, err = c.QoS(ctx, deviceID(d), uint64(r+1), wire); err == nil {
							break
						}
					}
					var b []byte
					if err == nil {
						b, err = json.Marshal(dec)
					}
					if err != nil {
						errs[d] = fmt.Errorf("event %d: %w", r+1, err)
						return
					}
					answers[d][r] = string(b)
				}
			}()
		}
		wg.Wait()
	}
	return answers, errs, nil
}

// check returns every soak invariant p breaks, judged against the
// reference answers want (which also fix the script's devices and
// events); faults says whether faults were injected into p.
func check(want [][]string, p *pass, faults bool) []string {
	var out []string
	report := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }

	// Every event is answered, byte-identical to the reference.
	for d, row := range want {
		missing, first := 0, 0
		for i, w := range row {
			switch got := p.answers[d][i]; {
			case got == "":
				if missing++; first == 0 {
					first = i + 1
				}
			case got != w:
				report("device %d event %d diverged:\n  want: %s\n  got:  %s", d, i+1, w, got)
			}
		}
		if missing > 0 {
			why := ""
			if d < len(p.errs) && p.errs[d] != nil {
				why = ": " + p.errs[d].Error()
			}
			report("device %d: %d of %d events never answered, the first is event %d%s", d, missing, len(row), first, why)
		}
	}

	// Every device sits on exactly one live node with all its
	// decisions, and no node holds a device outside the script.
	index := make(map[string]int, len(want))
	for d := range want {
		index[deviceID(d)] = d
	}
	owners := make([]int, len(want))
	for _, h := range p.nodes {
		for _, id := range slices.Sorted(maps.Keys(h.devices)) {
			d, ok := index[id]
			if !ok {
				report("%s holds device %s outside the script", h.node, id)
				continue
			}
			owners[d]++
			if n := h.devices[id].Decisions; n != int64(len(want[d])) {
				report("device %d on %s decided %d of %d events", d, h.node, n, len(want[d]))
			}
		}
	}
	for d, n := range owners {
		if n != 1 {
			report("device %d is registered on %d live nodes, want exactly 1", d, n)
		}
	}

	// The journal explains every decision exactly once. Migration
	// copies entries verbatim, so identical copies are removed first;
	// degraded fallbacks are extra flagged entries, allowed only when
	// faults are injected.
	type key struct {
		device string
		seq    uint64
	}
	unique := make(map[string]bool)
	perSeq := make(map[key]int)
	for _, je := range p.journal {
		b, err := json.Marshal(je.Entry)
		if err != nil {
			report("%s: journal entry %s/%d does not marshal: %v", je.Node, je.Entry.Device, je.Entry.Seq, err)
			continue
		}
		if unique[string(b)] {
			continue
		}
		unique[string(b)] = true
		e := je.Entry
		if !e.TraceID.IsValid() {
			report("%s: journal entry %s/%d carries invalid trace ID %q", je.Node, e.Device, e.Seq, e.TraceID)
		}
		if e.Degraded {
			if !faults {
				report("%s: degraded journal entry %s/%d without injected faults", je.Node, e.Device, e.Seq)
			}
			continue
		}
		perSeq[key{e.Device, e.Seq}]++
	}
	for d, row := range want {
		for i := range row {
			k := key{deviceID(d), uint64(i + 1)}
			if n := perSeq[k]; n != 1 {
				report("journal holds %d distinct decisions for %s/%d, want exactly 1", n, k.device, k.seq)
			}
			delete(perSeq, k)
		}
	}
	extra := slices.SortedFunc(maps.Keys(perSeq), func(a, b key) int {
		return cmp.Or(cmp.Compare(a.device, b.device), cmp.Compare(a.seq, b.seq))
	})
	for _, k := range extra {
		report("journal holds %d decisions for %s/%d outside the script", perSeq[k], k.device, k.seq)
	}
	return out
}
