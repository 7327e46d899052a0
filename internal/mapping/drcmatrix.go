package mapping

// Precomputed and memoised forms of the reconfiguration cost dRC.
//
// The pairwise dRC structure of a frozen database is static: once the
// design-time stage ships a set of configurations, the cost of moving
// between any two of them never changes. Both hot paths of the system
// funnel through these values — the run-time manager scores every
// feasible stored point against the current one on every QoS event,
// and the ReD stage computes average reconfiguration distances to the
// stored set inside every fitness evaluation — so this file provides
//
//   - DRCTotal: an allocation-free scalar fast path, bit-identical to
//     DRC(from, to).Total(), for callers that never look at the cost
//     decomposition;
//   - DRCMatrix: the |DB|x|DB| table of totals, precomputed once per
//     database and shared read-only by any number of managers, plus a
//     lazily filled table of full cost decompositions for the
//     transitions managers actually realise;
//   - DRCCache: a lazily-memoised average-distance cache for
//     configurations outside the database (ReD candidates).

import (
	"sync"
	"sync/atomic"
)

// drcScratch holds the per-PRR resident-bitstream work lists reused
// across DRCTotal and Diff calls, replacing the per-call map
// allocations of the full DRC path.
type drcScratch struct {
	from, to [][]int
	// bits is a per-PRR work list for newly demanded circuits (Diff).
	bits []int
}

var drcScratchPool = sync.Pool{New: func() any { return new(drcScratch) }}

func (sc *drcScratch) reset(nPRR int) {
	for len(sc.from) < nPRR {
		sc.from = append(sc.from, nil)
	}
	for len(sc.to) < nPRR {
		sc.to = append(sc.to, nil)
	}
	for i := 0; i < nPRR; i++ {
		sc.from[i] = sc.from[i][:0]
		sc.to[i] = sc.to[i][:0]
	}
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// residentInto collects, per PRR index, the distinct bitstream IDs the
// mapping demands, appending into the caller's scratch lists. It is
// the allocation-free counterpart of residentBitstreams.
func (s *Space) residentInto(m *Mapping, res [][]int) {
	for t := range m.Genes {
		g := &m.Genes[t]
		im := &s.Graph.Tasks[t].Impls[g.Impl]
		if im.BitstreamID < 0 {
			continue
		}
		prr := s.Platform.PEs[g.PE].PRR
		if prr >= 0 && !containsInt(res[prr], im.BitstreamID) {
			res[prr] = append(res[prr], im.BitstreamID)
		}
	}
}

// DRCTotal returns DRC(from, to).Total() without materialising the
// ReconfigCost decomposition or the per-PRR resident-set maps. The
// two partial sums are accumulated in exactly the order DRC uses (the
// bitstream term adds one identical constant per newly demanded
// circuit of each PRR, so set-iteration order cannot change the
// float64 result), making the returned scalar bit-identical to the
// full path. Steady-state calls allocate nothing.
func (s *Space) DRCTotal(from, to *Mapping) float64 {
	binMs := 0.0
	for t := range to.Genes {
		gf, gt := from.Genes[t], to.Genes[t]
		if gf.PE == gt.PE && gf.Impl == gt.Impl {
			continue
		}
		im := &s.Graph.Tasks[t].Impls[gt.Impl]
		if im.BitstreamID < 0 {
			binMs += s.Platform.BinaryMigrationMs(im.BinaryKB)
		}
	}
	nPRR := len(s.Platform.PRRs)
	if nPRR == 0 {
		return binMs
	}
	sc := drcScratchPool.Get().(*drcScratch)
	sc.reset(nPRR)
	s.residentInto(from, sc.from)
	s.residentInto(to, sc.to)
	bitMs := 0.0
	for prr := 0; prr < nPRR; prr++ {
		loadMs := s.Platform.BitstreamLoadMs(s.Platform.PRRs[prr].BitstreamKB)
		for _, bs := range sc.to[prr] {
			if !containsInt(sc.from[prr], bs) {
				bitMs += loadMs
			}
		}
	}
	drcScratchPool.Put(sc)
	return binMs + bitMs
}

// DRCMatrix holds the scalar reconfiguration cost between every
// ordered pair of a frozen set of mappings — typically a deployed
// design-point database. The totals are built once and immutable
// afterwards, so any number of goroutines (one manager per fleet
// device) may read them without synchronisation.
//
// Alongside the totals the matrix keeps the transition-cost table: the
// full ReconfigCost decomposition of each ordered pair, filled lazily
// on the first Cost call for that pair. Only realised reconfigurations
// need the decomposition, and they are a small fraction of the |DB|^2
// pairs, so a row is allocated on the first transition out of its
// source point. An entry never changes once stored, and every manager
// sharing the matrix shares the table.
type DRCMatrix struct {
	n      int
	totals []float64 // row-major: totals[from*n+to]

	space *Space
	maps  []*Mapping
	// trans[from] is the lazily allocated transition-cost row of one
	// source point; each cell is stored at most once (racing first
	// fills compute the same value and one of them wins).
	trans []atomic.Pointer[costRow]
}

// costRow is one source point's slice of the transition-cost table.
type costRow struct {
	cells []atomic.Pointer[ReconfigCost]
}

// NewDRCMatrix precomputes the |maps|^2 pairwise totals. Every entry
// is bit-identical to Space.DRC(maps[from], maps[to]).Total(). The
// matrix retains s and maps to fill its transition-cost table.
func NewDRCMatrix(s *Space, maps []*Mapping) *DRCMatrix {
	n := len(maps)
	m := &DRCMatrix{
		n:      n,
		totals: make([]float64, n*n),
		space:  s,
		maps:   maps,
		trans:  make([]atomic.Pointer[costRow], n),
	}
	for i, from := range maps {
		row := m.totals[i*n : (i+1)*n]
		for j, to := range maps {
			if i == j {
				continue // dRC(x, x) = 0: nothing moves
			}
			row[j] = s.DRCTotal(from, to)
		}
	}
	return m
}

// Len returns the number of mappings the matrix covers.
func (m *DRCMatrix) Len() int { return m.n }

// Total returns the precomputed dRC of switching from stored point
// `from` to stored point `to`.
func (m *DRCMatrix) Total(from, to int) float64 { return m.totals[from*m.n+to] }

// Row returns the precomputed dRC totals out of stored point `from`,
// indexed by destination point. The slice aliases the matrix and must
// not be modified.
func (m *DRCMatrix) Row(from int) []float64 {
	return m.totals[from*m.n : (from+1)*m.n : (from+1)*m.n]
}

// Cost returns the full decomposition DRC(maps[from], maps[to]) of a
// transition between stored points, computing it at most once per pair
// for the matrix's lifetime. Steady-state calls allocate nothing.
func (m *DRCMatrix) Cost(from, to int) ReconfigCost {
	slot := &m.trans[from]
	row := slot.Load()
	if row == nil {
		fresh := &costRow{cells: make([]atomic.Pointer[ReconfigCost], m.n)}
		if slot.CompareAndSwap(nil, fresh) {
			row = fresh
		} else {
			row = slot.Load()
		}
	}
	cell := &row.cells[to]
	if c := cell.Load(); c != nil {
		return *c
	}
	c := m.space.DRC(m.maps[from], m.maps[to])
	cell.CompareAndSwap(nil, &c)
	return c
}

// DRCCache memoises average reconfiguration distances from arbitrary
// (typically out-of-database) configurations to a frozen stored set,
// keyed by the configuration's canonical Key. GAs re-evaluate cloned
// genomes every generation; the cache collapses those duplicates to
// one distance computation each. Safe for concurrent use.
type DRCCache struct {
	space *Space
	set   []*Mapping
	mu    sync.Mutex
	avg   map[string]float64
}

// NewDRCCache builds an empty cache over the stored set.
func NewDRCCache(s *Space, set []*Mapping) *DRCCache {
	return &DRCCache{space: s, set: set, avg: make(map[string]float64)}
}

// AvgDRC returns Space.AvgDRCTo(m, set), computing it at most once per
// distinct genome.
func (c *DRCCache) AvgDRC(m *Mapping) float64 {
	key := m.Key()
	c.mu.Lock()
	v, ok := c.avg[key]
	c.mu.Unlock()
	if ok {
		return v
	}
	v = c.space.AvgDRCTo(m, c.set)
	c.mu.Lock()
	c.avg[key] = v
	c.mu.Unlock()
	return v
}
