package schedule

// The slot-free evaluation and the sort-free peak-power sweep, held to
// the reference scheduler of kernel_ref_test.go.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"clrdse/internal/mapping"
	"clrdse/internal/platform"
	"clrdse/internal/relmodel"
	"clrdse/internal/rng"
	"clrdse/internal/taskgraph"
)

// TestSummarizeMatchesReference holds the slot-free evaluation to the
// reference scheduler's metrics bit for bit, with and without
// interconnect contention.
func TestSummarizeMatchesReference(t *testing.T) {
	for _, c := range refCases(t) {
		t.Run(c.name, func(t *testing.T) {
			r := rng.New(int64(len(c.name)) + 1)
			for i := 0; i < 40; i++ {
				m := c.space.Random(r)
				if c.prios > 0 {
					for g := range m.Genes {
						m.Genes[g].Prio = r.Intn(c.prios)
					}
				}
				for _, contention := range []bool{false, true} {
					ev := &Evaluator{Space: c.space, Env: relmodel.DefaultEnv(), ContentionAware: contention}
					want, err := refRun(ev, m, nil)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ev.Summarize(m)
					if err != nil {
						t.Fatal(err)
					}
					if got != want.Summary {
						t.Fatalf("mapping %d contention=%v: Summarize = %+v, reference %+v", i, contention, got, want.Summary)
					}
				}
			}
		})
	}
}

// TestSummarizeAllocatesNothing pins the slot-free evaluation: once
// warm, its schedule lives entirely in pooled scratch.
func TestSummarizeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	for _, contention := range []bool{false, true} {
		ev := testEvaluator(t, 40)
		ev.ContentionAware = contention
		m := ev.Space.Random(rng.New(3))
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := ev.Summarize(m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("contention=%v: Summarize allocates %v times per call, want 0", contention, allocs)
		}
	}
}

// TestSlotsEndAfterStart states the invariant the peak-power merge
// relies on for its per-PE runs to be in sweep order as built: every
// slot ends after it starts, and on each PE a task starts no earlier
// than the previous one ends.
func TestSlotsEndAfterStart(t *testing.T) {
	for _, c := range refCases(t) {
		r := rng.New(int64(len(c.name)) + 2)
		ev := &Evaluator{Space: c.space, Env: relmodel.DefaultEnv()}
		for i := 0; i < 40; i++ {
			m := c.space.Random(r)
			durs := make([]float64, len(m.Genes))
			for d := range durs {
				durs[d] = r.Range(0.5, 30)
			}
			for _, timed := range []bool{false, true} {
				res, err := ev.Evaluate(m)
				if timed {
					res, err = ev.Timeline(m, durs)
				}
				if err != nil {
					t.Fatal(err)
				}
				byPE := map[int][]Slot{}
				for _, s := range res.Slots {
					if !(s.EndMs > s.StartMs) {
						t.Fatalf("%s mapping %d: task %d ends at %v, not after its start %v", c.name, i, s.Task, s.EndMs, s.StartMs)
					}
					byPE[s.PE] = append(byPE[s.PE], s)
				}
				for pe, ss := range byPE {
					sort.Slice(ss, func(a, b int) bool { return ss[a].StartMs < ss[b].StartMs })
					for k := 1; k < len(ss); k++ {
						if ss[k].StartMs < ss[k-1].EndMs {
							t.Fatalf("%s mapping %d: PE %d starts task %d at %v before task %d ends at %v",
								c.name, i, pe, ss[k].Task, ss[k].StartMs, ss[k-1].Task, ss[k-1].EndMs)
						}
					}
				}
			}
		}
	}
}

// tieTask is one task of a hand-built schedule: its PE, its priority
// (higher runs first on a shared PE), its duration and its base power.
type tieTask struct {
	pe, prio int
	dur      float64
	powerW   float64
}

// tieEdge makes dst wait for src's data.
type tieEdge struct {
	src, dst int
	commMs   float64
}

// tieSchedule builds a graph of the tasks on the default platform, with
// one implementation each for its PE's type, and runs Timeline with the
// tasks' durations.
func tieSchedule(t *testing.T, tasks []tieTask, edges []tieEdge) *Result {
	t.Helper()
	plat := platform.Default()
	g := &taskgraph.Graph{Name: "ties", PeriodMs: 1000}
	m := &mapping.Mapping{}
	durs := make([]float64, len(tasks))
	for i, tk := range tasks {
		g.Tasks = append(g.Tasks, taskgraph.Task{
			ID: i, Name: fmt.Sprintf("t%d", i), Criticality: 1 / float64(len(tasks)),
			Impls: []taskgraph.Impl{{ID: 0, PEType: plat.PEs[tk.pe].Type, BaseExTimeMs: tk.dur,
				BasePowerW: tk.powerW, BinaryKB: 16, BitstreamID: -1}},
		})
		m.Genes = append(m.Genes, mapping.Gene{PE: tk.pe, Prio: tk.prio})
		durs[i] = tk.dur
	}
	for i, e := range edges {
		g.Edges = append(g.Edges, taskgraph.Edge{ID: i, Src: e.src, Dst: e.dst, CommTimeMs: e.commMs})
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	ev := &Evaluator{Space: &mapping.Space{Graph: g, Platform: plat, Catalogue: relmodel.DefaultCatalogue()}, Env: relmodel.DefaultEnv()}
	res, err := ev.Timeline(m, durs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// arrivalsFirstPeak is the sweep under the flipped tie rule: arrivals
// before departures at equal times.
func arrivalsFirstPeak(slots []Slot) float64 {
	var evs []powerEvent
	for _, s := range slots {
		evs = append(evs, powerEvent{s.StartMs, s.Metrics.PowerW}, powerEvent{s.EndMs, -s.Metrics.PowerW})
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].at != evs[b].at {
			return evs[a].at < evs[b].at
		}
		return evs[a].delta > evs[b].delta
	})
	cur, peak := 0.0, 0.0
	for _, ev := range evs {
		cur += ev.delta
		peak = math.Max(peak, cur)
	}
	return peak
}

// TestPeakPowerCrossPETies pins the tie rule between PEs: hand-built
// schedules with integer durations in which a departure on one PE and
// an arrival on another share a timestamp. Within a PE the run order
// fixes the events; across PEs only the merge's comparison does, and
// each case tells the two tie rules apart.
func TestPeakPowerCrossPETies(t *testing.T) {
	for _, c := range []struct {
		name  string
		tasks []tieTask
		edges []tieEdge
	}{
		{
			// PE 1 runs a light task then a heavy one; PE 2's heavy task
			// ends as the second starts.
			name: "departure on the later PE",
			tasks: []tieTask{
				{pe: 1, prio: 9, dur: 10, powerW: 1},
				{pe: 2, prio: 8, dur: 10, powerW: 4},
				{pe: 1, prio: 7, dur: 10, powerW: 4},
			},
		},
		{
			name: "departure on the earlier PE",
			tasks: []tieTask{
				{pe: 2, prio: 9, dur: 10, powerW: 1},
				{pe: 1, prio: 8, dur: 10, powerW: 4},
				{pe: 2, prio: 7, dur: 10, powerW: 4},
			},
		},
		{
			// No same-PE boundary at the tie: task 1 waits for task 0's
			// data, arriving on PE 2 at 6 as task 2 leaves PE 3.
			name: "arrival on an idle PE",
			tasks: []tieTask{
				{pe: 1, prio: 9, dur: 4, powerW: 1},
				{pe: 2, prio: 8, dur: 5, powerW: 3},
				{pe: 3, prio: 7, dur: 6, powerW: 3},
			},
			edges: []tieEdge{{src: 0, dst: 1, commMs: 2}},
		},
		{
			// Four PEs, so the ties meet at every level of the merge.
			name: "ties across four PEs",
			tasks: []tieTask{
				{pe: 1, prio: 9, dur: 6, powerW: 2},
				{pe: 2, prio: 9, dur: 3, powerW: 1},
				{pe: 3, prio: 9, dur: 6, powerW: 3},
				{pe: 4, prio: 9, dur: 12, powerW: 1},
				{pe: 1, prio: 5, dur: 6, powerW: 3},
				{pe: 2, prio: 5, dur: 3, powerW: 2},
				{pe: 3, prio: 5, dur: 6, powerW: 2},
				{pe: 2, prio: 4, dur: 6, powerW: 3},
			},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			res := tieSchedule(t, c.tasks, c.edges)
			tie := false
			for _, a := range res.Slots {
				for _, b := range res.Slots {
					tie = tie || a.PE != b.PE && a.EndMs == b.StartMs
				}
			}
			if !tie {
				t.Fatalf("no departure meets an arrival on another PE: %+v", res.Slots)
			}
			want := refPeakPower(res.Slots)
			if flipped := arrivalsFirstPeak(res.Slots); flipped == want {
				t.Fatalf("the case does not tell the tie rules apart: both give %v", want)
			}
			if res.PeakPowerW != want {
				t.Errorf("peak power %v, reference %v", res.PeakPowerW, want)
			}
		})
	}
}

// TestPeakPowerAbsorbedDuration gives a task a duration too small to
// move its end past its start (the sum rounds back to the start), so
// its PE's run is out of sweep order as dispatched; the peak must still
// match the reference.
func TestPeakPowerAbsorbedDuration(t *testing.T) {
	res := tieSchedule(t, []tieTask{
		{pe: 1, prio: 9, dur: 1e6, powerW: 1},
		{pe: 1, prio: 8, dur: 1e-12, powerW: 3},
		{pe: 1, prio: 7, dur: 5, powerW: 2},
		{pe: 2, prio: 9, dur: 1e6, powerW: 2},
		{pe: 2, prio: 8, dur: 4, powerW: 1},
	}, nil)
	if s := res.Slots[1]; s.EndMs != s.StartMs {
		t.Fatalf("task 1 runs [%v, %v]; the case needs its duration absorbed", s.StartMs, s.EndMs)
	}
	if want := refPeakPower(res.Slots); res.PeakPowerW != want {
		t.Errorf("peak power %v, reference %v", res.PeakPowerW, want)
	}
}
