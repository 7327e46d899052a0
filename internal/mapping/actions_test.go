package mapping

import (
	"math"
	"strings"
	"testing"

	"clrdse/internal/relmodel"
	"clrdse/internal/rng"
)

// Diff returns Transition's plan alone: the plan-only view the plan
// oracles below and in drc_ref_test.go and drcmatrix_test.go check.
func (s *Space) Diff(from, to *Mapping) []Action {
	_, plan := s.Transition(from, to)
	return plan
}

// PlanCost sums the actions' costs.
func PlanCost(actions []Action) float64 {
	total := 0.0
	for _, a := range actions {
		total += a.CostMs
	}
	return total
}

func TestDiffCostMatchesDRC(t *testing.T) {
	s := testSpace(t, 30)
	r := rng.New(21)
	for i := 0; i < 50; i++ {
		a, b := s.Random(r), s.Random(r)
		plan := s.Diff(a, b)
		want := s.DRC(a, b).Total()
		if got := PlanCost(plan); math.Abs(got-want) > 1e-9 {
			t.Fatalf("plan cost %v != dRC %v", got, want)
		}
	}
}

func TestDiffEmptyForIdentical(t *testing.T) {
	s := testSpace(t, 15)
	m := s.Random(rng.New(22))
	if plan := s.Diff(m, m); len(plan) != 0 {
		t.Errorf("identity diff has %d actions", len(plan))
	}
}

func TestDiffFreeActionsForFreeModes(t *testing.T) {
	s := testSpace(t, 15)
	m := s.Random(rng.New(23))
	o := m.Clone()
	o.Genes[3].Prio += 5
	o.Genes[4].CLR = relmodel.Config{HW: 1, SSW: 1, ASW: 1}
	plan := s.Diff(m, o)
	if len(plan) != 2 {
		t.Fatalf("plan = %v, want exactly reorder + set-clr", plan)
	}
	kinds := map[ActionKind]bool{}
	for _, a := range plan {
		kinds[a.Kind] = true
		if a.CostMs != 0 {
			t.Errorf("free action %v has cost", a)
		}
	}
	if !kinds[ActionReorder] || !kinds[ActionSetCLR] {
		t.Errorf("plan kinds = %v", plan)
	}
}

func TestDiffOrdering(t *testing.T) {
	s := testSpace(t, 30)
	r := rng.New(24)
	for i := 0; i < 20; i++ {
		plan := s.Diff(s.Random(r), s.Random(r))
		stage := 0 // 0=bitstreams, 1=copies, 2=free
		for _, a := range plan {
			var want int
			switch a.Kind {
			case ActionLoadBitstream:
				want = 0
			case ActionCopyBinary:
				want = 1
			default:
				want = 2
			}
			if want < stage {
				t.Fatalf("plan out of order: %v", plan)
			}
			stage = want
		}
	}
}

func TestDiffBitstreamTargets(t *testing.T) {
	s := testSpace(t, 40)
	r := rng.New(25)
	for i := 0; i < 20; i++ {
		a, b := s.Random(r), s.Random(r)
		for _, act := range s.Diff(a, b) {
			switch act.Kind {
			case ActionLoadBitstream:
				if act.PRR < 0 || act.PRR >= len(s.Platform.PRRs) || act.Bitstream < 0 {
					t.Fatalf("bad bitstream action %+v", act)
				}
				if act.PE >= 0 && s.Platform.PEs[act.PE].PRR != act.PRR {
					t.Fatalf("bitstream action PE/PRR mismatch %+v", act)
				}
			case ActionCopyBinary:
				if act.Task < 0 || act.PE < 0 {
					t.Fatalf("bad copy action %+v", act)
				}
				if b.Genes[act.Task].PE != act.PE {
					t.Fatalf("copy action targets wrong PE %+v", act)
				}
			}
		}
	}
}

func TestActionStrings(t *testing.T) {
	for _, a := range []Action{
		{Kind: ActionCopyBinary, Task: 1, PE: 2, CostMs: 0.5},
		{Kind: ActionLoadBitstream, PRR: 1, Bitstream: 3, CostMs: 1},
		{Kind: ActionSetCLR, Task: 4},
		{Kind: ActionReorder, Task: 5},
	} {
		if a.String() == "" || strings.Contains(a.String(), "ActionKind(") {
			t.Errorf("bad string for %+v: %q", a, a.String())
		}
	}
	if !strings.Contains(ActionKind(9).String(), "9") {
		t.Error("unknown kind string")
	}
}
