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
//   - DRCTotal: an allocation-free scalar fast path for callers that
//     never look at the cost decomposition;
//   - DRCMatrix: the |DB|x|DB| table of totals, precomputed once per
//     database and shared read-only by any number of managers (a
//     realised transition's decomposition and plan come from the two
//     stored resident sets, Residents.Cost and Residents.AppendPlan,
//     and are not kept);
//   - DRCCache: a lazily-memoised average-distance cache for
//     configurations outside the database (ReD candidates).
//
// Every path sums dRC in one form: the binary migrations in task
// order, then each newly demanded circuit's load added one at a time,
// PRR by PRR (never the load count times the load time, which rounds
// differently from about ten loads on). DRC, DRCTotal, Transition, the
// matrix and the cache therefore agree bit for bit. All of them compare
// per-PRR resident sets (see residency): the matrix and Residents
// compute each stored mapping's once per database, the cache once per
// stored set, and a single call once per mapping it is given.

// DRCTotal returns DRC(from, to).Total() without materialising the
// ReconfigCost decomposition, bit for bit: it sums the same two terms
// in the same form. Steady-state calls allocate nothing.
func (s *Space) DRCTotal(from, to *Mapping) float64 {
	sc := pairPool.Get().(*drcPair)
	s.residencyOf(from, &sc.from.res)
	s.residencyOf(to, &sc.to.res)
	binMs, _ := s.binaryMs(from, to)
	bitMs, _ := s.bitstreamMs(&sc.from.res, &sc.to.res)
	pairPool.Put(sc)
	return binMs + bitMs
}

// DRCMatrix holds the scalar reconfiguration cost between every
// ordered pair of a frozen set of mappings — typically a deployed
// design-point database. The totals are built once and immutable
// afterwards, so any number of goroutines (one manager per fleet
// device) may read them without synchronisation. The matrix keeps
// nothing but the totals: n^2 floats.
type DRCMatrix struct {
	n      int
	totals []float64 // row-major: totals[from*n+to]
}

// NewDRCMatrix precomputes the |maps|^2 pairwise totals with the pair
// kernel, which fills both cells of each unordered pair from the two
// mappings' sides, prepared once and dropped after the build. Every
// entry is bit-identical to Space.DRC(maps[from], maps[to]).Total().
func NewDRCMatrix(s *Space, maps []*Mapping) *DRCMatrix {
	n := len(maps)
	m := &DRCMatrix{n: n, totals: make([]float64, n*n)}
	sides := s.prepareAll(maps)
	for i := range maps {
		// dRC(x, x) = 0: nothing moves, so the diagonal stays zero.
		for j := i + 1; j < n; j++ {
			m.totals[i*n+j], m.totals[j*n+i] = s.pairDRC(maps[i], maps[j], &sides[i], &sides[j])
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

// DRCCache memoises average reconfiguration distances from arbitrary
// (typically out-of-database) configurations to a frozen stored set,
// keyed by genome hash. GAs re-evaluate cloned genomes every
// generation; the cache collapses those duplicates to one distance
// computation each. An average depends only on the genome and the
// stored set, so one cache serves every search over that set. The
// stored set's sides (resident sets and per-task binary costs) are
// prepared once, when the cache is built. It keeps a reference to
// every genome it memoises, which must therefore not be modified
// afterwards. Safe for concurrent use.
type DRCCache struct {
	space *Space
	set   []*Mapping
	sides []side // sides[i] is set[i]'s
	memo  Memo[float64]
	// hash keys the memo; tests replace it to force collisions.
	hash func(*Mapping) uint64
}

// NewDRCCache builds an empty cache over the stored set.
func NewDRCCache(s *Space, set []*Mapping) *DRCCache {
	return &DRCCache{space: s, set: set, sides: s.prepareAll(set), hash: (*Mapping).Hash}
}

// AvgDRC returns Space.AvgDRCTo(m, set), bit for bit, computing it at
// most once per distinct genome. A hit allocates nothing.
func (c *DRCCache) AvgDRC(m *Mapping) float64 { return c.AvgDRCHashed(c.hash(m), m) }

// AvgDRCHashed is AvgDRC for a caller that has already hashed m: h
// keys the memo in place of m.Hash(). A caller that keys another memo
// by the same genome hashes it once for both.
func (c *DRCCache) AvgDRCHashed(h uint64, m *Mapping) float64 {
	if v, ok := c.memo.Get(h, m); ok {
		return v
	}
	v := c.space.avgDRC(m, c.set, c.sides)
	c.memo.Add(h, m, v)
	return v
}
