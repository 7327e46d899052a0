package mapping

// Concrete reconfiguration plans. The simulator only needs the scalar
// dRC of a transition, but a deployed run-time manager must hand the
// platform an imperative action list: which binaries to copy where,
// which bitstreams to stream into which PRRs, which tasks merely
// change their reliability configuration or schedule position.
// Transition derives that list from two configurations together with
// the transition's cost under the model of DRC (Section 3.5); Diff
// returns the list alone, and Residents plans transitions within a
// frozen set from resident sets computed once.

import (
	"fmt"
	"math/bits"
)

// ActionKind classifies one reconfiguration step.
type ActionKind int

const (
	// ActionCopyBinary copies a task's software binary into a PE's
	// local memory (Section 3.5 modes 3/4).
	ActionCopyBinary ActionKind = iota
	// ActionLoadBitstream streams an accelerator circuit into a PRR.
	ActionLoadBitstream
	// ActionSetCLR re-parameterises a task's per-layer reliability
	// methods (free: no data movement).
	ActionSetCLR
	// ActionReorder changes a task's schedule priority (free).
	ActionReorder
)

func (k ActionKind) String() string {
	switch k {
	case ActionCopyBinary:
		return "copy-binary"
	case ActionLoadBitstream:
		return "load-bitstream"
	case ActionSetCLR:
		return "set-clr"
	case ActionReorder:
		return "reorder"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Action is one imperative reconfiguration step.
type Action struct {
	// Kind selects the step type.
	Kind ActionKind
	// Task is the affected task (-1 for pure bitstream loads).
	Task int
	// PE is the destination PE for binary copies and the PRR-backed
	// PE for bitstream loads; -1 otherwise.
	PE int
	// PRR is the reconfigured region for bitstream loads; -1 otherwise.
	PRR int
	// Bitstream is the circuit ID for bitstream loads; -1 otherwise.
	Bitstream int
	// CostMs is the step's contribution to dRC (0 for free steps).
	CostMs float64
}

// String renders the action for logs.
func (a Action) String() string {
	switch a.Kind {
	case ActionCopyBinary:
		return fmt.Sprintf("copy-binary task=%d -> PE%d (%.3f ms)", a.Task, a.PE, a.CostMs)
	case ActionLoadBitstream:
		return fmt.Sprintf("load-bitstream %d -> PRR%d (%.3f ms)", a.Bitstream, a.PRR, a.CostMs)
	case ActionSetCLR:
		return fmt.Sprintf("set-clr task=%d", a.Task)
	case ActionReorder:
		return fmt.Sprintf("reorder task=%d", a.Task)
	default:
		return a.Kind.String()
	}
}

// Diff returns the imperative plan that takes the system from
// configuration `from` to configuration `to`, ordered bitstream loads
// first (longest latency, so they overlap with binary copies on real
// hardware), then binary copies, then the free steps. The sum of the
// actions' CostMs equals DRC(from, to).Total(). It is Transition's
// plan.
func (s *Space) Diff(from, to *Mapping) []Action {
	_, plan := s.Transition(from, to)
	return plan
}

// Transition returns the cost decomposition and the plan of switching
// from configuration `from` to configuration `to`, both from one pair
// of resident sets: the cost is DRC(from, to) and the plan Diff(from,
// to), bit for bit. Each cost term is summed in DRC's form — binary
// migrations in task order, bitstream loads one at a time, PRR by PRR
// — alongside the action that realises it. Plans sit on the decision
// hot path of deployed managers, so the resident-set scan reuses
// pooled scratch and the plan is sized exactly (nil when empty); a
// caller that plans many transitions over one frozen set prices them
// through Residents instead, which computes each side once.
func (s *Space) Transition(from, to *Mapping) (ReconfigCost, []Action) {
	sc := pairPool.Get().(*drcPair)
	rf, rt := &sc.from.res, &sc.to.res
	s.residencyOf(from, rf)
	s.residencyOf(to, rt)
	cost, plan := s.transition(from, to, rf, rt)
	pairPool.Put(sc)
	return cost, plan
}

// transition is Transition given the two mappings' resident sets, rf
// of from and rt of to.
func (s *Space) transition(from, to *Mapping, rf, rt *residency) (ReconfigCost, []Action) {
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
	var cost ReconfigCost
	var actions []Action
	if n := nBits + nCopies + nFrees; n > 0 {
		actions = make([]Action, 0, n)
	}

	// Bitstream loads: newly demanded circuits per PRR, in circuit-ID
	// order within each region (the bitset's word and bit order).
	for prr := range s.Platform.PRRs {
		loadMs := s.Platform.BitstreamLoadMs(s.Platform.PRRs[prr].BitstreamKB)
		for i := 0; i < rt.w; i++ {
			for w := newWord(rf, rt, prr, i); w != 0; w &= w - 1 {
				cost.BitstreamMs += loadMs
				cost.ReloadedPRRs++
				actions = append(actions, Action{
					Kind:      ActionLoadBitstream,
					Task:      -1,
					PE:        prrPE(s, prr),
					PRR:       prr,
					Bitstream: 64*i + bits.TrailingZeros64(w),
					CostMs:    loadMs,
				})
			}
		}
	}

	// Binary copies, then the free per-task steps. Every moved task
	// adds its binary cost, +0.0 for an accelerator, as binaryMs does.
	for t := range to.Genes {
		gt := &to.Genes[t]
		if !moved(&from.Genes[t], gt) {
			continue
		}
		binMs := s.binaryCost(to, t)
		cost.BinaryMigrationMs += binMs
		cost.MigratedTasks++
		if s.Graph.Tasks[t].Impls[gt.Impl].BitstreamID < 0 {
			actions = append(actions, Action{
				Kind:      ActionCopyBinary,
				Task:      t,
				PE:        gt.PE,
				PRR:       -1,
				Bitstream: -1,
				CostMs:    binMs,
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
	return cost, actions
}

// Residents holds the resident set of every mapping of a frozen set —
// typically a deployed design-point database — computed once, so a
// transition between two of them is priced and planned without
// recomputing either side. The sets share one block of prrs·w words
// per mapping, w the widest set's word count (a narrower set's extra
// words stay zero and add no load). Immutable after construction and
// safe for concurrent use.
type Residents struct {
	space *Space
	maps  []*Mapping
	prrs  int
	w     int
	bits  []uint64 // bits[(p*prrs+prr)*w+i]: word i of mapping p's circuits on PRR prr
}

// NewResidents computes the resident sets of maps in s straight into
// one block: a first pass finds the widest set, a second sets each
// mapping's circuits as residencyOf does.
func NewResidents(s *Space, maps []*Mapping) *Residents {
	r := &Residents{space: s, maps: maps, prrs: len(s.Platform.PRRs)}
	maxID := -1
	for _, m := range maps {
		for t := range m.Genes {
			if bs, prr := s.demand(m, t); prr >= 0 && bs > maxID {
				maxID = bs
			}
		}
	}
	r.w = maxID/64 + 1
	stride := r.prrs * r.w
	r.bits = make([]uint64, len(maps)*stride)
	for p, m := range maps {
		set := r.bits[p*stride : (p+1)*stride]
		for t := range m.Genes {
			if bs, prr := s.demand(m, t); prr >= 0 {
				set[prr*r.w+bs/64] |= 1 << (bs % 64)
			}
		}
	}
	return r
}

// at returns mapping p's resident set, a view into the block.
func (r *Residents) at(p int) residency {
	stride := r.prrs * r.w
	return residency{w: r.w, bits: r.bits[p*stride : (p+1)*stride : (p+1)*stride]}
}

// Transition returns Space.Transition(maps[from], maps[to]) bit for
// bit, from the stored resident sets.
func (r *Residents) Transition(from, to int) (ReconfigCost, []Action) {
	rf, rt := r.at(from), r.at(to)
	return r.space.transition(r.maps[from], r.maps[to], &rf, &rt)
}

// prrPE returns the PE backed by the given PRR, or -1.
func prrPE(s *Space, prr int) int {
	for _, pe := range s.Platform.PEs {
		if pe.PRR == prr {
			return pe.ID
		}
	}
	return -1
}

// PlanCost sums the actions' costs.
func PlanCost(actions []Action) float64 {
	total := 0.0
	for _, a := range actions {
		total += a.CostMs
	}
	return total
}
