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
	sc := pairPool.Get().(*drcPair)
	s.residencyOf(from, &sc.from.res)
	s.residencyOf(to, &sc.to.res)
	cost := s.transitionCost(from, to, &sc.from.res, &sc.to.res)
	pairPool.Put(sc)
	return cost
}

// moved reports whether a task's binding changed between two of its
// genes: a task whose PE binding or implementation changed needs its
// (new) binary present at the (new) PE. It is the one definition of a
// migrated task every dRC path shares.
func moved(a, b *Gene) bool { return a.PE != b.PE || a.Impl != b.Impl }

// MigratedTasks returns how many tasks change their (PE,
// implementation) binding between two configurations of one
// application: DRC(from, to).MigratedTasks, without pricing anything.
func MigratedTasks(from, to *Mapping) int {
	n := 0
	for t := range to.Genes {
		if moved(&from.Genes[t], &to.Genes[t]) {
			n++
		}
	}
	return n
}

// binaryCost is what moving task t to its binding under m costs in
// binary migration: a software binary travels over the interconnect;
// an accelerator's "binary" is its bitstream, priced by bitstreamMs,
// so it costs +0.0 here. Adding +0.0 to a sum that starts at +0 leaves
// the sum's bits unchanged, so every path adds the cost of each moved
// task unconditionally.
func (s *Space) binaryCost(m *Mapping, t int) float64 {
	im := &s.Graph.Tasks[t].Impls[m.Genes[t].Impl]
	if im.BitstreamID >= 0 {
		return 0
	}
	return s.Platform.BinaryMigrationMs(im.BinaryKB)
}

// binaryMs prices task binary migration, summed in task order, and
// counts the tasks that moved.
func (s *Space) binaryMs(from, to *Mapping) (ms float64, migrated int) {
	for t := range to.Genes {
		if moved(&from.Genes[t], &to.Genes[t]) {
			ms += s.binaryCost(to, t)
			migrated++
		}
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
// DRCTotal, Transition, DRCMatrix, DRCCache).
type residency struct {
	w    int
	bits []uint64 // bits[prr*w+i] holds circuits 64i..64i+63 of PRR prr
}

// side is one mapping prepared for the pair kernel: its resident set
// and its per-task binary costs (costs[t] is binaryCost of task t).
type side struct {
	res   residency
	costs []float64
}

// drcPair is the pooled scratch of a two-mapping comparison.
type drcPair struct {
	from, to side
}

var pairPool = sync.Pool{New: func() any { return new(drcPair) }}

// prepare fills d with m's resident set and per-task binary costs,
// reusing d's storage.
func (s *Space) prepare(m *Mapping, d *side) {
	s.residencyOf(m, &d.res)
	if cap(d.costs) < len(m.Genes) {
		d.costs = make([]float64, len(m.Genes))
	}
	d.costs = d.costs[:len(m.Genes)]
	for t := range m.Genes {
		d.costs[t] = s.binaryCost(m, t)
	}
}

// prepareAll prepares every mapping of a set, once; the cost vectors
// share one allocation.
func (s *Space) prepareAll(maps []*Mapping) []side {
	sides := make([]side, len(maps))
	n := 0
	for _, m := range maps {
		n += len(m.Genes)
	}
	costs := make([]float64, n)
	for i, m := range maps {
		k := len(m.Genes)
		sides[i].costs, costs = costs[:k:k], costs[k:]
		s.prepare(m, &sides[i])
	}
	return sides
}

// pairDRC is the pair kernel: it returns dRC(a, b) and dRC(b, a), each
// bit for bit DRCTotal's, from the two mappings' prepared sides. One
// walk over the genes serves both directions: a task that moved adds
// b's cost to the forward binary term and a's to the reverse one, both
// summed in task order as binaryMs sums them.
func (s *Space) pairDRC(a, b *Mapping, da, db *side) (ab, ba float64) {
	var abBin, baBin float64
	for t := range b.Genes {
		if moved(&a.Genes[t], &b.Genes[t]) {
			abBin += db.costs[t]
			baBin += da.costs[t]
		}
	}
	abBit, _ := s.bitstreamMs(&da.res, &db.res)
	baBit, _ := s.bitstreamMs(&db.res, &da.res)
	return abBin + abBit, baBin + baBit
}

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
// distance from the stored design points" objective. Each mapping is
// prepared once per call and serves both directions.
func (s *Space) AvgDRCTo(m *Mapping, set []*Mapping) float64 {
	return s.avgDRC(m, set, s.prepareAll(set))
}

// avgDRC is AvgDRCTo given the set's prepared sides (sides[i] is
// set[i]'s); m's own is prepared once, into pooled scratch. The sum
// runs over the set in order, both directions per point.
func (s *Space) avgDRC(m *Mapping, set []*Mapping, sides []side) float64 {
	if len(set) == 0 {
		return 0
	}
	sc := pairPool.Get().(*drcPair)
	dm := &sc.from
	s.prepare(m, dm)
	sum := 0.0
	for i, o := range set {
		there, back := s.pairDRC(m, o, dm, &sides[i])
		sum += there + back
	}
	pairPool.Put(sc)
	return sum / float64(2*len(set))
}
