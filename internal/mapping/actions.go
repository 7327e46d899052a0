package mapping

// Concrete reconfiguration plans. The simulator only needs the scalar
// dRC of a transition, but a deployed run-time manager must hand the
// platform an imperative action list: which binaries to copy where,
// which bitstreams to stream into which PRRs, which tasks merely
// change their reliability configuration or schedule position.
// Transition derives that list from two configurations together with
// the transition's cost under the model of DRC (Section 3.5), and
// Residents prices and plans transitions within a frozen set from
// resident sets computed once — the cost walk and the plan builder
// separately, so a caller can price a transition now and plan it only
// when the plan is needed.

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

// Transition returns the cost decomposition and the plan of switching
// from configuration `from` to configuration `to`, both from one pair
// of resident sets: the cost is DRC(from, to), bit for bit, and the
// plan orders bitstream loads first (longest latency, so they overlap
// with binary copies on real hardware), then binary copies, then the
// free steps; its actions' CostMs sum to the cost's Total. The
// resident-set scan reuses pooled scratch and the plan is sized
// exactly (nil when empty); a caller that plans many transitions over
// one frozen set prices and plans them through Residents instead,
// which computes each side once.
func (s *Space) Transition(from, to *Mapping) (ReconfigCost, []Action) {
	sc := pairPool.Get().(*drcPair)
	rf, rt := &sc.from.res, &sc.to.res
	s.residencyOf(from, rf)
	s.residencyOf(to, rt)
	cost, plan := s.transitionCost(from, to, rf, rt), s.plan(from, to, rf, rt)
	pairPool.Put(sc)
	return cost, plan
}

// transitionCost is the cost walk of a transition given the two
// mappings' resident sets, rf of from and rt of to: each term summed
// in DRC's form — binary migrations in task order, bitstream loads one
// at a time, PRR by PRR — so its Total is DRC's bit for bit.
func (s *Space) transitionCost(from, to *Mapping, rf, rt *residency) ReconfigCost {
	var cost ReconfigCost
	cost.BinaryMigrationMs, cost.MigratedTasks = s.binaryMs(from, to)
	cost.BitstreamMs, cost.ReloadedPRRs = s.bitstreamMs(rf, rt)
	return cost
}

// plan is appendPlan into a slice sized exactly by a counting pass;
// nil when there is nothing to do.
func (s *Space) plan(from, to *Mapping, rf, rt *residency) []Action {
	n := 0
	for prr := range s.Platform.PRRs {
		n += newLoads(rf, rt, prr)
	}
	for t := range to.Genes {
		gf, gt := &from.Genes[t], &to.Genes[t]
		if moved(gf, gt) && s.Graph.Tasks[t].Impls[gt.Impl].BitstreamID < 0 {
			n++
		}
		if gf.CLR != gt.CLR {
			n++
		}
		if gf.Prio != gt.Prio {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	return s.appendPlan(make([]Action, 0, n), from, to, rf, rt)
}

// appendPlan is the plan builder: it appends the transition's actions
// to dst, given the two mappings' resident sets. Each action's CostMs
// is the term the cost walk adds for it.
func (s *Space) appendPlan(dst []Action, from, to *Mapping, rf, rt *residency) []Action {
	// Bitstream loads: newly demanded circuits per PRR, in circuit-ID
	// order within each region (the bitset's word and bit order).
	for prr := range s.Platform.PRRs {
		loadMs := s.Platform.BitstreamLoadMs(s.Platform.PRRs[prr].BitstreamKB)
		for i := 0; i < rt.w; i++ {
			for w := newWord(rf, rt, prr, i); w != 0; w &= w - 1 {
				dst = append(dst, Action{
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

	// Binary copies (an accelerator's bitstream is its binary, loaded
	// above), then the free per-task steps.
	for t := range to.Genes {
		gt := &to.Genes[t]
		if moved(&from.Genes[t], gt) && s.Graph.Tasks[t].Impls[gt.Impl].BitstreamID < 0 {
			dst = append(dst, Action{
				Kind:      ActionCopyBinary,
				Task:      t,
				PE:        gt.PE,
				PRR:       -1,
				Bitstream: -1,
				CostMs:    s.binaryCost(to, t),
			})
		}
	}
	for t := range to.Genes {
		gf, gt := from.Genes[t], to.Genes[t]
		if gf.CLR != gt.CLR {
			dst = append(dst, Action{Kind: ActionSetCLR, Task: t, PE: -1, PRR: -1, Bitstream: -1})
		}
		if gf.Prio != gt.Prio {
			dst = append(dst, Action{Kind: ActionReorder, Task: t, PE: -1, PRR: -1, Bitstream: -1})
		}
	}
	return dst
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

// Cost returns the cost of Space.Transition(maps[from], maps[to]),
// bit for bit, from the stored resident sets, without planning it.
func (r *Residents) Cost(from, to int) ReconfigCost {
	rf, rt := r.at(from), r.at(to)
	return r.space.transitionCost(r.maps[from], r.maps[to], &rf, &rt)
}

// AppendPlan appends the plan of Space.Transition(maps[from],
// maps[to]) to dst, action for action, from the stored resident sets.
// A caller that plans many transitions reuses one dst.
func (r *Residents) AppendPlan(dst []Action, from, to int) []Action {
	rf, rt := r.at(from), r.at(to)
	return r.space.appendPlan(dst, r.maps[from], r.maps[to], &rf, &rt)
}

// Plan is AppendPlan into a plan of its own, sized exactly (nil when
// empty): Space.Transition(maps[from], maps[to])'s plan.
func (r *Residents) Plan(from, to int) []Action {
	rf, rt := r.at(from), r.at(to)
	return r.space.plan(r.maps[from], r.maps[to], &rf, &rt)
}

// Transition returns Space.Transition(maps[from], maps[to]) bit for
// bit: Cost and Plan of the pair.
func (r *Residents) Transition(from, to int) (ReconfigCost, []Action) {
	return r.Cost(from, to), r.Plan(from, to)
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
