package soak

import (
	"fmt"
	"strings"
	"testing"

	"clrdse/internal/fleet"
	"clrdse/internal/fleet/fleettest"
	"clrdse/internal/obs"
)

// TestKillSchedule pins the schedule's contract: kills precede their
// restarts, node 0 is never attacked, all rounds fit, and equal seeds
// reproduce the plan — down to three rounds on two nodes.
func TestKillSchedule(t *testing.T) {
	for _, dims := range []struct {
		seed   int64
		rounds int
		nodes  int
	}{{7, 24, 3}, {137, 10, 3}, {137, 24, 3}, {1, 3, 2}, {99, 40, 5}} {
		evs := killSchedule(dims.seed, dims.rounds, dims.nodes)
		if len(evs) == 0 {
			t.Fatalf("%+v: empty schedule", dims)
		}
		down := map[int]bool{}
		lastRound := -1
		for _, ev := range evs {
			if ev.Node <= 0 || ev.Node >= dims.nodes {
				t.Fatalf("%+v: event on node %d outside (0,%d)", dims, ev.Node, dims.nodes)
			}
			if ev.Round < 0 || ev.Round >= dims.rounds {
				t.Fatalf("%+v: event at round %d outside [0,%d)", dims, ev.Round, dims.rounds)
			}
			if ev.Round < lastRound {
				t.Fatalf("%+v: schedule out of order", dims)
			}
			lastRound = ev.Round
			if ev.Restart != down[ev.Node] {
				t.Fatalf("%+v: %+v does not alternate kill and restart", dims, ev)
			}
			down[ev.Node] = !ev.Restart
		}
		again := killSchedule(dims.seed, dims.rounds, dims.nodes)
		if fmt.Sprint(evs) != fmt.Sprint(again) {
			t.Fatalf("%+v: schedule not reproducible", dims)
		}
	}
}

// cleanPass is a hand-built transcript of two devices with three
// events each that breaks no invariant: every answer matches, both
// devices sit whole on node-0, and the journal explains each decision
// once.
func cleanPass() ([][]string, *pass) {
	const devices, events = 2, 3
	want := make([][]string, devices)
	p := &pass{
		answers: make([][]string, devices),
		nodes:   []holding{{node: "node-0", devices: map[string]fleet.DeviceStats{}}},
	}
	ids := obs.NewMinter(1)
	for d := range want {
		for i := range events {
			want[d] = append(want[d], fmt.Sprintf(`{"device":%q,"seq":%d}`, deviceID(d), i+1))
			p.journal = append(p.journal, fleettest.JournalEntry{Node: "node-0", Entry: obs.Entry{
				TraceID: ids.Mint(), Device: deviceID(d), Seq: uint64(i + 1), UnixNanos: int64(10*d + i),
			}})
		}
		p.answers[d] = append([]string(nil), want[d]...)
		p.nodes[0].devices[deviceID(d)] = fleet.DeviceStats{Decisions: events}
	}
	return want, p
}

// TestCheckFlagsEachBrokenInvariant breaks one invariant at a time in
// a clean transcript: each break must give exactly one violation, and
// the two legitimate extras (a migrated copy, a degraded fallback
// under faults) none.
func TestCheckFlagsEachBrokenInvariant(t *testing.T) {
	if want, p := cleanPass(); len(check(want, p, false)) != 0 {
		t.Fatalf("clean pass: %q", check(want, p, false))
	}
	for _, tc := range []struct {
		name   string
		faults bool
		edit   func(p *pass)
		want   string // substring of the one violation; "" for none
	}{
		{"missing answer", false, func(p *pass) { p.answers[1][2] = "" }, "never answered"},
		{"diverged answer", false, func(p *pass) { p.answers[0][1] = `{"device":"soak-0","seq":9}` }, "diverged"},
		{"device on no node", false, func(p *pass) { delete(p.nodes[0].devices, "soak-1") }, "on 0 live nodes"},
		{"device on two nodes", false, func(p *pass) {
			p.nodes = append(p.nodes, holding{node: "node-1", devices: map[string]fleet.DeviceStats{"soak-0": {Decisions: 3}}})
		}, "on 2 live nodes"},
		{"short decision count", false, func(p *pass) { p.nodes[0].devices["soak-0"] = fleet.DeviceStats{Decisions: 2} }, "decided 2 of 3"},
		{"two decisions for one seq", false, func(p *pass) {
			e := p.journal[0].Entry
			e.UnixNanos, e.To = 99, 1
			p.journal = append(p.journal, fleettest.JournalEntry{Node: "node-0", Entry: e})
		}, "2 distinct decisions for soak-0/1"},
		{"seq outside the script", false, func(p *pass) {
			e := p.journal[0].Entry
			e.Seq = 4
			p.journal = append(p.journal, fleettest.JournalEntry{Node: "node-0", Entry: e})
		}, "soak-0/4 outside the script"},
		{"invalid trace ID", false, func(p *pass) { p.journal[3].Entry.TraceID = "not-a-trace" }, "invalid trace ID"},
		{"degraded entry without faults", false, func(p *pass) {
			e := p.journal[2].Entry
			e.Degraded, e.UnixNanos = true, 98
			p.journal = append(p.journal, fleettest.JournalEntry{Node: "node-0", Entry: e})
		}, "degraded journal entry soak-0/3"},
		{"identical migrated copy", false, func(p *pass) {
			p.journal = append(p.journal, fleettest.JournalEntry{Node: "node-1", Entry: p.journal[4].Entry})
		}, ""},
		{"degraded entry under faults", true, func(p *pass) {
			e := p.journal[2].Entry
			e.Degraded, e.UnixNanos = true, 98
			p.journal = append(p.journal, fleettest.JournalEntry{Node: "node-0", Entry: e})
		}, ""},
	} {
		want, p := cleanPass()
		tc.edit(p)
		got := check(want, p, tc.faults)
		switch {
		case tc.want == "" && len(got) != 0:
			t.Errorf("%s: want no violation, got %q", tc.name, got)
		case tc.want != "" && (len(got) != 1 || !strings.Contains(got[0], tc.want)):
			t.Errorf("%s: want one violation containing %q, got %q", tc.name, tc.want, got)
		}
	}
}
