package schedule

// The reference list scheduler and the property tests that hold the
// pooled-scratch kernel to it.
//
// refRun is the scheduler as it stood before the pooled scratch: the
// graph's Preds()/Succs() rebuilt per call, a ready list re-sorted
// before every pop, and a peak-power sweep over a freshly sorted event
// list. Its code is kept as it was, so any kernel change that alters a
// start time, a peak or a metric bit fails here.

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"clrdse/internal/mapping"
	"clrdse/internal/platform"
	"clrdse/internal/relmodel"
	"clrdse/internal/rng"
	"clrdse/internal/taskgraph"
)

func refRun(e *Evaluator, m *mapping.Mapping, durOverride []float64) (*Result, error) {
	if err := e.Space.Validate(m); err != nil {
		return nil, err
	}
	g := e.Space.Graph
	plat := e.Space.Platform
	n := g.NumTasks()

	res := &Result{Slots: make([]Slot, n)}
	for t := 0; t < n; t++ {
		gene := m.Genes[t]
		im := &g.Tasks[t].Impls[gene.Impl]
		pt := plat.TypeOf(gene.PE)
		res.Slots[t] = Slot{
			Task:    t,
			PE:      gene.PE,
			Metrics: relmodel.Evaluate(im, pt, gene.CLR, e.Space.Catalogue, e.Env),
		}
	}

	preds := g.Preds()
	succs := g.Succs()
	remaining := make([]int, n)
	dataReady := make([]float64, n)
	for t := 0; t < n; t++ {
		remaining[t] = len(preds[t])
	}
	peAvail := make([]float64, plat.NumPEs())
	peLastBitstream := make([]int, plat.NumPEs())
	for i := range peLastBitstream {
		peLastBitstream[i] = -1
	}
	var ready []int
	push := func(t int) { ready = append(ready, t) }
	for t := 0; t < n; t++ {
		if remaining[t] == 0 {
			push(t)
		}
	}
	scheduled := 0
	busAvail := 0.0
	for len(ready) > 0 {
		sort.Slice(ready, func(a, b int) bool {
			pa, pb := m.Genes[ready[a]].Prio, m.Genes[ready[b]].Prio
			if pa != pb {
				return pa > pb
			}
			return ready[a] < ready[b]
		})
		t := ready[0]
		ready = ready[1:]

		gene := m.Genes[t]
		slot := &res.Slots[t]
		if e.ContentionAware {
			for _, eid := range preds[t] {
				edge := g.Edges[eid]
				arrive := res.Slots[edge.Src].EndMs
				if m.Genes[edge.Src].PE != gene.PE {
					ts := math.Max(busAvail, arrive)
					arrive = ts + edge.CommTimeMs
					busAvail = arrive
				}
				if arrive > dataReady[t] {
					dataReady[t] = arrive
				}
			}
		}
		start := math.Max(peAvail[gene.PE], dataReady[t])

		im := &g.Tasks[t].Impls[gene.Impl]
		if im.BitstreamID >= 0 {
			prr := plat.PEs[gene.PE].PRR
			if last := peLastBitstream[gene.PE]; last >= 0 && last != im.BitstreamID {
				start += plat.BitstreamLoadMs(plat.PRRs[prr].BitstreamKB)
			}
			peLastBitstream[gene.PE] = im.BitstreamID
		}

		dur := slot.Metrics.AvgExTMs
		if durOverride != nil {
			dur = durOverride[t]
		}
		slot.StartMs = start
		slot.EndMs = start + dur
		peAvail[gene.PE] = slot.EndMs
		scheduled++

		for _, eid := range succs[t] {
			edge := g.Edges[eid]
			if !e.ContentionAware {
				arrive := slot.EndMs
				if m.Genes[edge.Dst].PE != gene.PE {
					arrive += edge.CommTimeMs
				}
				if arrive > dataReady[edge.Dst] {
					dataReady[edge.Dst] = arrive
				}
			}
			remaining[edge.Dst]--
			if remaining[edge.Dst] == 0 {
				push(edge.Dst)
			}
		}
	}
	if scheduled != n {
		return nil, fmt.Errorf("schedule: only %d of %d tasks schedulable (cyclic graph?)", scheduled, n)
	}

	res.MTTFMs = math.Inf(1)
	for t := 0; t < n; t++ {
		s := &res.Slots[t]
		if s.EndMs > res.MakespanMs {
			res.MakespanMs = s.EndMs
		}
		res.Reliability += g.Tasks[t].Criticality * (1 - s.Metrics.ErrProb)
		res.EnergyMJ += s.Metrics.AvgExTMs * s.Metrics.PowerW
		if s.Metrics.MTTFMs < res.MTTFMs {
			res.MTTFMs = s.Metrics.MTTFMs
		}
	}
	res.PeakPowerW = refPeakPower(res.Slots)
	res.MeetsPeriod = res.MakespanMs <= g.PeriodMs
	return res, nil
}

func refPeakPower(slots []Slot) float64 {
	type event struct {
		at    float64
		delta float64
	}
	evs := make([]event, 0, 2*len(slots))
	for i := range slots {
		evs = append(evs,
			event{slots[i].StartMs, slots[i].Metrics.PowerW},
			event{slots[i].EndMs, -slots[i].Metrics.PowerW},
		)
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].at != evs[b].at {
			return evs[a].at < evs[b].at
		}
		return evs[a].delta < evs[b].delta
	})
	cur, peak := 0.0, 0.0
	for _, ev := range evs {
		cur += ev.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// refCase is one problem instance the kernel is held to the reference
// on.
type refCase struct {
	name  string
	space *mapping.Space
	// prios, when positive, redraws every priority from [0, prios), so
	// the ready queue sees many equal priorities.
	prios int
}

// noPRRPlatform is the default platform without its PRR-backed
// accelerator slots: accelerator implementations become unrunnable and
// no circuit is ever loaded.
func noPRRPlatform() *platform.Platform {
	p := platform.Default()
	q := &platform.Platform{
		Name:             "default-no-prr",
		Types:            p.Types,
		InterconnectKBps: p.InterconnectKBps,
		ICAPKBps:         p.ICAPKBps,
	}
	for _, pe := range p.PEs {
		if pe.PRR < 0 {
			pe.ID = len(q.PEs)
			q.PEs = append(q.PEs, pe)
		}
	}
	return q
}

// wideBitstreams spreads the graph's circuit IDs far past 63, so they
// span several 64-bit words.
func wideBitstreams(g *taskgraph.Graph) {
	for t := range g.Tasks {
		for i := range g.Tasks[t].Impls {
			if im := &g.Tasks[t].Impls[i]; im.BitstreamID >= 0 {
				im.BitstreamID = 61*im.BitstreamID + 3
			}
		}
	}
}

func refCases(t *testing.T) []refCase {
	t.Helper()
	cat := relmodel.DefaultCatalogue()
	gen := func(seed int64, n int, accel float64, plat *platform.Platform) *taskgraph.Graph {
		g, err := taskgraph.Generate(taskgraph.GenParams{Seed: seed, NumTasks: n, AccelProb: accel}, plat)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	def := platform.Default()
	var cases []refCase
	for i, n := range []int{1, 7, 24, 60} {
		cases = append(cases, refCase{
			name:  fmt.Sprintf("default-n%d", n),
			space: &mapping.Space{Graph: gen(int64(100+i), n, 0, def), Platform: def, Catalogue: cat},
		})
	}
	cases = append(cases,
		refCase{
			name:  "equal-priorities",
			space: &mapping.Space{Graph: gen(110, 40, 0, def), Platform: def, Catalogue: cat},
			prios: 2,
		},
		refCase{
			name:  "all-equal-priorities",
			space: &mapping.Space{Graph: gen(111, 30, 0, def), Platform: def, Catalogue: cat},
			prios: 1,
		},
		refCase{
			name:  "no-prr",
			space: &mapping.Space{Graph: gen(112, 35, 0, def), Platform: noPRRPlatform(), Catalogue: cat},
		},
	)
	wide := gen(113, 50, 1, def)
	wideBitstreams(wide)
	cases = append(cases, refCase{
		name:  "bitstreams-above-63",
		space: &mapping.Space{Graph: wide, Platform: def, Catalogue: cat},
	})
	large := platform.Large()
	cases = append(cases, refCase{
		name:  "large-platform",
		space: &mapping.Space{Graph: gen(114, 45, 1, large), Platform: large, Catalogue: cat},
	})
	return cases
}

// TestKernelMatchesReference holds Evaluate and Timeline to the
// reference scheduler bit for bit, with and without interconnect
// contention, over random mappings of every reference case.
func TestKernelMatchesReference(t *testing.T) {
	for _, c := range refCases(t) {
		t.Run(c.name, func(t *testing.T) {
			r := rng.New(int64(len(c.name)))
			for i := 0; i < 40; i++ {
				m := c.space.Random(r)
				if c.prios > 0 {
					for g := range m.Genes {
						m.Genes[g].Prio = r.Intn(c.prios)
					}
				}
				durs := make([]float64, len(m.Genes))
				for d := range durs {
					durs[d] = r.Range(0.5, 30)
				}
				for _, contention := range []bool{false, true} {
					ev := &Evaluator{Space: c.space, Env: relmodel.DefaultEnv(), ContentionAware: contention}
					want, err := refRun(ev, m, nil)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ev.Evaluate(m)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("mapping %d contention=%v: Evaluate differs from the reference\n got %+v\nwant %+v", i, contention, *got, *want)
					}
					want, err = refRun(ev, m, durs)
					if err != nil {
						t.Fatal(err)
					}
					got, err = ev.Timeline(m, durs)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("mapping %d contention=%v: Timeline differs from the reference\n got %+v\nwant %+v", i, contention, *got, *want)
					}
				}
			}
		})
	}
}

// TestKernelRebuildsDependenciesPerCall edits the graph between two
// evaluations through the same evaluator (and so the same pooled
// scratch): the second must schedule the graph as it now stands.
func TestKernelRebuildsDependenciesPerCall(t *testing.T) {
	ev := testEvaluator(t, 30)
	m := ev.Space.Random(rng.New(9))
	if _, err := ev.Evaluate(m); err != nil {
		t.Fatal(err)
	}
	ev.Space.Graph.Edges = ev.Space.Graph.Edges[:len(ev.Space.Graph.Edges)/2]
	want, err := refRun(ev, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after an edge edit: got %+v, want %+v", *got, *want)
	}
}

// TestEvaluateAllocatesOnlyResult pins the pooled scratch: once warm,
// an evaluation allocates its Result and its slots and nothing else.
func TestEvaluateAllocatesOnlyResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	for _, contention := range []bool{false, true} {
		ev := testEvaluator(t, 40)
		ev.ContentionAware = contention
		m := ev.Space.Random(rng.New(3))
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := ev.Evaluate(m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 2 {
			t.Errorf("contention=%v: Evaluate allocates %v times per call, want 2 (Result and slots)", contention, allocs)
		}
	}
}
