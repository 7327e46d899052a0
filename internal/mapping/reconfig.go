package mapping

// This file implements the reconfiguration model of the paper's
// Section 3.5. Of the four dynamic-adaptation modes, (1) re-ordering
// tasks on a PE and (2) changing per-layer CLR configurations are free
// (binaries stay resident in local memory); (3) changing a task's
// implementation and (4) changing its task-to-PE binding copy binaries
// to the destination PE, and moving accelerator work between circuits
// additionally re-loads PRR bitstreams through the configuration port.

import (
	"math/bits"
	"sync"
)

// ReconfigCost is the decomposition of dRC between two configurations,
// in milliseconds of reconfiguration activity. The scalar dRC used by
// the optimisers and the run-time manager is Total().
type ReconfigCost struct {
	// BinaryMigrationMs is time spent copying task binaries to PEs
	// that did not previously hold them.
	BinaryMigrationMs float64
	// BitstreamMs is time spent streaming accelerator bitstreams into
	// PRRs whose resident circuit changes.
	BitstreamMs float64
	// MigratedTasks counts tasks whose (PE, implementation) binding
	// changed.
	MigratedTasks int
	// ReloadedPRRs counts PRRs that receive a new bitstream.
	ReloadedPRRs int
}

// Total returns the scalar reconfiguration cost dRC.
func (c ReconfigCost) Total() float64 { return c.BinaryMigrationMs + c.BitstreamMs }

// DRC computes the reconfiguration cost of switching the system from
// configuration `from` to configuration `to`. Both must be valid in
// the space. DRC is not symmetric in general (different binaries move
// in each direction) but is zero iff the bindings and resident
// bitstream sets are unchanged.
//
// Both terms are summed in the one form every dRC path shares
// (binaryMs, then bitstreamMs), so Total() is bit-identical to
// DRCTotal.
func (s *Space) DRC(from, to *Mapping) ReconfigCost {
	var cost ReconfigCost
	cost.BinaryMigrationMs, cost.MigratedTasks = s.binaryMs(from, to)
	sc := residencyPool.Get().(*residencyPair)
	s.residencyOf(from, &sc.from)
	s.residencyOf(to, &sc.to)
	cost.BitstreamMs, cost.ReloadedPRRs = s.bitstreamMs(&sc.from, &sc.to)
	residencyPool.Put(sc)
	return cost
}

// binaryMs prices task binary migration and counts the tasks whose
// binding changed. A task whose PE binding or implementation changed
// needs its (new) binary present at the (new) PE. Software binaries
// travel over the interconnect, summed in task order; accelerator
// "binaries" are the bitstream, priced by bitstreamMs.
func (s *Space) binaryMs(from, to *Mapping) (ms float64, migrated int) {
	for t := range to.Genes {
		gf, gt := &from.Genes[t], &to.Genes[t]
		if gf.PE == gt.PE && gf.Impl == gt.Impl {
			continue
		}
		im := &s.Graph.Tasks[t].Impls[gt.Impl]
		if im.BitstreamID < 0 {
			ms += s.Platform.BinaryMigrationMs(im.BinaryKB)
		}
		migrated++
	}
	return ms, migrated
}

// bitstreamMs prices PRR bitstream reloads and counts them, comparing
// the resident circuits of each PRR before (rf) and after (rt). A
// PRR's resident set is the set of bitstream IDs demanded by
// accelerator tasks bound to the PE it backs; if the configuration
// time-multiplexes several circuits on one PRR, each *newly demanded*
// circuit costs one load (the steady-state swapping cost during
// execution is part of the schedule model, not of dRC). Loads are
// added one at a time, PRR by PRR: a product of the load count and the
// load time would round differently from about ten loads on.
func (s *Space) bitstreamMs(rf, rt *residency) (ms float64, loads int) {
	for prr := range s.Platform.PRRs {
		loadMs := s.Platform.BitstreamLoadMs(s.Platform.PRRs[prr].BitstreamKB)
		for n := newLoads(rf, rt, prr); n > 0; n-- {
			ms += loadMs
			loads++
		}
	}
	return ms, loads
}

// residency is the per-PRR set of accelerator circuits a mapping
// demands: for each PRR, a bitset over bitstream IDs of w 64-bit
// words. It is the one resident-set form every dRC path shares (DRC,
// DRCTotal, Diff, DRCMatrix, DRCCache).
type residency struct {
	w    int
	bits []uint64 // bits[prr*w+i] holds circuits 64i..64i+63 of PRR prr
}

// residencyPair is the pooled scratch of a two-mapping comparison.
type residencyPair struct {
	from, to residency
}

var residencyPool = sync.Pool{New: func() any { return new(residencyPair) }}

// residencyOf fills r with the circuits m demands per PRR, reusing r's
// storage: a task contributes its implementation's bitstream ID to the
// PRR backing its PE.
func (s *Space) residencyOf(m *Mapping, r *residency) {
	maxID := -1
	for t := range m.Genes {
		if bs, prr := s.demand(m, t); prr >= 0 && bs > maxID {
			maxID = bs
		}
	}
	r.w = maxID/64 + 1 // 0 when no circuit is demanded
	n := len(s.Platform.PRRs) * r.w
	if cap(r.bits) < n {
		r.bits = make([]uint64, n)
	} else {
		r.bits = r.bits[:n]
		clear(r.bits)
	}
	for t := range m.Genes {
		if bs, prr := s.demand(m, t); prr >= 0 {
			r.bits[prr*r.w+bs/64] |= 1 << (bs % 64)
		}
	}
}

// demand returns the circuit task t demands under m and the PRR that
// must hold it; prr is -1 when the task demands none (a software
// implementation, or a PE without a PRR).
func (s *Space) demand(m *Mapping, t int) (bs, prr int) {
	g := &m.Genes[t]
	bs = s.Graph.Tasks[t].Impls[g.Impl].BitstreamID
	if bs < 0 {
		return -1, -1
	}
	return bs, s.Platform.PEs[g.PE].PRR
}

// newWord returns word i of PRR prr's circuits in `to` that `from`
// lacks.
func newWord(from, to *residency, prr, i int) uint64 {
	w := to.bits[prr*to.w+i]
	if i < from.w {
		w &^= from.bits[prr*from.w+i]
	}
	return w
}

// newLoads counts the circuits PRR prr holds under `to` but not under
// `from`: the bitstream loads of that PRR.
func newLoads(from, to *residency, prr int) int {
	n := 0
	for i := 0; i < to.w; i++ {
		n += bits.OnesCount64(newWord(from, to, prr, i))
	}
	return n
}

// AvgDRCTo returns the mean dRC from m to each mapping in the set.
// The ReD optimisation stage uses this as the "average reconfiguration
// distance from the stored design points" objective. Each mapping's
// resident set is computed once per call and serves both directions.
func (s *Space) AvgDRCTo(m *Mapping, set []*Mapping) float64 {
	return s.avgDRC(m, set, s.residencies(set))
}

// avgDRC is AvgDRCTo given the set's resident sets (res[i] is
// set[i]'s); m's own is computed once, into pooled scratch. The sum
// runs over the set in order, both directions per point.
func (s *Space) avgDRC(m *Mapping, set []*Mapping, res []residency) float64 {
	if len(set) == 0 {
		return 0
	}
	sc := residencyPool.Get().(*residencyPair)
	rm := &sc.from
	s.residencyOf(m, rm)
	sum := 0.0
	for i, o := range set {
		sum += s.drcTotal(m, o, rm, &res[i]) + s.drcTotal(o, m, &res[i], rm)
	}
	residencyPool.Put(sc)
	return sum / float64(2*len(set))
}

// residencies computes the resident set of every mapping, once.
func (s *Space) residencies(maps []*Mapping) []residency {
	res := make([]residency, len(maps))
	for i, m := range maps {
		s.residencyOf(m, &res[i])
	}
	return res
}
