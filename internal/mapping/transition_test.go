package mapping

// The transition oracle: Transition's cost against DRC and its plan
// against refDiff, the plan builder as it stood before cost and plan
// came from one walk. refDiff's code is kept as it was; Diff now
// returns Transition's plan, so comparing the two would compare the
// new code with itself.

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"clrdse/internal/rng"
)

func refDiff(s *Space, from, to *Mapping) []Action {
	sc := pairPool.Get().(*drcPair)
	rf, rt := &sc.from.res, &sc.to.res
	s.residencyOf(from, rf)
	s.residencyOf(to, rt)

	// Size the plan before building it.
	nBits, nCopies, nFrees := 0, 0, 0
	for prr := range s.Platform.PRRs {
		nBits += newLoads(rf, rt, prr)
	}
	for t := range to.Genes {
		gf, gt := &from.Genes[t], &to.Genes[t]
		if moved(gf, gt) && s.Graph.Tasks[t].Impls[gt.Impl].BitstreamID < 0 {
			nCopies++
		}
		if gf.CLR != gt.CLR {
			nFrees++
		}
		if gf.Prio != gt.Prio {
			nFrees++
		}
	}
	if nBits+nCopies+nFrees == 0 {
		pairPool.Put(sc)
		return nil
	}
	actions := make([]Action, 0, nBits+nCopies+nFrees)

	// Bitstream loads: newly demanded circuits per PRR, in circuit-ID
	// order within each region (the bitset's word and bit order).
	for prr := range s.Platform.PRRs {
		for i := 0; i < rt.w; i++ {
			for w := newWord(rf, rt, prr, i); w != 0; w &= w - 1 {
				actions = append(actions, Action{
					Kind:      ActionLoadBitstream,
					Task:      -1,
					PE:        prrPE(s, prr),
					PRR:       prr,
					Bitstream: 64*i + bits.TrailingZeros64(w),
					CostMs:    s.Platform.BitstreamLoadMs(s.Platform.PRRs[prr].BitstreamKB),
				})
			}
		}
	}
	pairPool.Put(sc)

	// Binary copies, then the free per-task steps.
	for t := range to.Genes {
		gt := &to.Genes[t]
		if !moved(&from.Genes[t], gt) {
			continue
		}
		im := &s.Graph.Tasks[t].Impls[gt.Impl]
		if im.BitstreamID < 0 {
			actions = append(actions, Action{
				Kind:      ActionCopyBinary,
				Task:      t,
				PE:        gt.PE,
				PRR:       -1,
				Bitstream: -1,
				CostMs:    s.Platform.BinaryMigrationMs(im.BinaryKB),
			})
		}
	}
	for t := range to.Genes {
		gf, gt := from.Genes[t], to.Genes[t]
		if gf.CLR != gt.CLR {
			actions = append(actions, Action{Kind: ActionSetCLR, Task: t, PE: -1, PRR: -1, Bitstream: -1})
		}
		if gf.Prio != gt.Prio {
			actions = append(actions, Action{Kind: ActionReorder, Task: t, PE: -1, PRR: -1, Bitstream: -1})
		}
	}
	return actions
}

// nearMappings pairs each of n random mappings with a copy that takes
// a few tasks' genes from another random mapping, so plans are short
// and an accelerator may move without any action.
func nearMappings(s *Space, n int, seed int64) (from, to []*Mapping) {
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		a, donor := s.Random(r), s.Random(r)
		b := a.Clone()
		for k := r.Intn(4); k >= 0; k-- {
			t := r.Intn(len(b.Genes))
			b.Genes[t] = donor.Genes[t]
		}
		from, to = append(from, a), append(to, b)
	}
	return from, to
}

// checkTransition requires Transition(from, to), and the prepared
// entry point over the pair's resident sets, to return DRC's cost and
// refDiff's plan (see checkPlanned).
func checkTransition(t *testing.T, where string, s *Space, from, to *Mapping) {
	t.Helper()
	cost, plan := s.Transition(from, to)
	checkPlanned(t, where, s, from, to, cost, plan)
	cost, plan = NewResidents(s, []*Mapping{from, to}).Transition(0, 1)
	checkPlanned(t, where+" (resident sets)", s, from, to, cost, plan)
}

// checkPlanned requires cost and plan, as planned for the transition
// from `from` to `to`, to be DRC's cost — all four fields, the sums'
// bits included — and refDiff's plan, action by action with the cost
// bits, and MigratedTasks to count what DRC counts.
func checkPlanned(t *testing.T, where string, s *Space, from, to *Mapping, cost ReconfigCost, plan []Action) {
	t.Helper()
	want, wantPlan := s.DRC(from, to), refDiff(s, from, to)
	if math.Float64bits(cost.BinaryMigrationMs) != math.Float64bits(want.BinaryMigrationMs) ||
		math.Float64bits(cost.BitstreamMs) != math.Float64bits(want.BitstreamMs) ||
		cost.MigratedTasks != want.MigratedTasks || cost.ReloadedPRRs != want.ReloadedPRRs {
		t.Fatalf("%s: Transition cost %+v, DRC %+v", where, cost, want)
	}
	if got := MigratedTasks(from, to); got != want.MigratedTasks {
		t.Fatalf("%s: MigratedTasks = %d, DRC counts %d", where, got, want.MigratedTasks)
	}
	if len(plan) != len(wantPlan) || (plan == nil) != (wantPlan == nil) || cap(plan) != len(plan) {
		t.Fatalf("%s: plan of %d actions (cap %d, nil %v), reference %d (nil %v)",
			where, len(plan), cap(plan), plan == nil, len(wantPlan), wantPlan == nil)
	}
	for k := range plan {
		a, b := plan[k], wantPlan[k]
		if a != b || math.Float64bits(a.CostMs) != math.Float64bits(b.CostMs) {
			t.Fatalf("%s: action %d is %+v, reference %+v", where, k, a, b)
		}
	}
}

// TestTransitionMatchesDRCAndDiff holds Transition to DRC and to the
// reference plan builder on every ordered pair of the dRC reference
// cases (accelerator-heavy spaces, more than 64 circuits, no PRR, the
// large platform), on random pairs and on near pairs. The prepared
// entry point runs on every pair too: over the pair alone, and over
// each reference case's whole set.
func TestTransitionMatchesDRCAndDiff(t *testing.T) {
	for _, c := range drcRefCases(t) {
		r := NewResidents(c.space, c.maps)
		for i, from := range c.maps {
			for j, to := range c.maps {
				where := fmt.Sprintf("%s pair (%d,%d)", c.name, i, j)
				checkTransition(t, where, c.space, from, to)
				cost, plan := r.Transition(i, j)
				checkPlanned(t, where+" (whole set)", c.space, from, to, cost, plan)
			}
		}
	}
	s := testSpace(t, 30)
	ms := randomMappings(s, 40, 71)
	for i := 1; i < len(ms); i++ {
		checkTransition(t, fmt.Sprintf("random pair %d", i), s, ms[i-1], ms[i])
	}
	for seed := int64(0); seed < 20; seed++ {
		s := accelSpace(t, 700+seed)
		ms := accelMappings(s, 10, seed)
		for i := 1; i < len(ms); i++ {
			checkTransition(t, fmt.Sprintf("accelerator seed %d pair %d", seed, i), s, ms[i-1], ms[i])
		}
		from, to := nearMappings(s, 20, seed)
		for i := range from {
			where := fmt.Sprintf("accelerator seed %d near pair %d", seed, i)
			checkTransition(t, where, s, from[i], to[i])
			checkTransition(t, where+" reversed", s, to[i], from[i])
		}
	}
}

// TestTransitionAllocations pins Transition and Residents.Transition to
// one allocation, the exactly sized plan, and to none when nothing is
// to be done; the cost walk plus AppendPlan into a reused slice
// allocate nothing.
func TestTransitionAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	s := accelSpace(t, 68)
	ms := accelMappings(s, 2, 69)
	s.Transition(ms[0], ms[1])
	if a := testing.AllocsPerRun(200, func() { s.Transition(ms[0], ms[1]) }); a != 1 {
		t.Errorf("Transition between distinct mappings allocates %v times per call, want 1", a)
	}
	if a := testing.AllocsPerRun(200, func() { s.Transition(ms[0], ms[0]) }); a != 0 {
		t.Errorf("Transition to the same mapping allocates %v times per call, want 0", a)
	}
	r := NewResidents(s, ms)
	if a := testing.AllocsPerRun(200, func() { r.Transition(0, 1) }); a != 1 {
		t.Errorf("Residents.Transition between distinct mappings allocates %v times per call, want 1", a)
	}
	if a := testing.AllocsPerRun(200, func() { r.Transition(1, 1) }); a != 0 {
		t.Errorf("Residents.Transition to the same mapping allocates %v times per call, want 0", a)
	}
	dst := r.AppendPlan(nil, 0, 1)
	if a := testing.AllocsPerRun(200, func() { r.Cost(0, 1); dst = r.AppendPlan(dst[:0], 0, 1) }); a != 0 {
		t.Errorf("Residents.Cost plus AppendPlan into a reused slice allocate %v times per call, want 0", a)
	}
}

// TestResidentsCostAndAppendPlan holds the two halves of a transition
// to their composition: on every ordered pair of each dRC reference
// case, Residents.Cost is Transition's cost and AppendPlan appends
// Transition's plan after whatever dst already holds, into one reused
// slice.
func TestResidentsCostAndAppendPlan(t *testing.T) {
	prefix := Action{Kind: ActionReorder, Task: 99, PE: -1, PRR: -1, Bitstream: -1}
	var dst []Action
	for _, c := range drcRefCases(t) {
		r := NewResidents(c.space, c.maps)
		for i := range c.maps {
			for j := range c.maps {
				where := fmt.Sprintf("%s pair (%d,%d)", c.name, i, j)
				cost, plan := r.Transition(i, j)
				if got := r.Cost(i, j); got != cost || math.Float64bits(got.Total()) != math.Float64bits(cost.Total()) {
					t.Fatalf("%s: Cost %+v, Transition's %+v", where, got, cost)
				}
				dst = r.AppendPlan(append(dst[:0], prefix), i, j)
				if len(dst) != 1+len(plan) || dst[0] != prefix {
					t.Fatalf("%s: AppendPlan wrote %d actions after the prefix, Transition plans %d", where, len(dst)-1, len(plan))
				}
				for k, a := range plan {
					if dst[1+k] != a || math.Float64bits(dst[1+k].CostMs) != math.Float64bits(a.CostMs) {
						t.Fatalf("%s: appended action %d is %+v, Transition's %+v", where, k, dst[1+k], a)
					}
				}
			}
		}
	}
}
