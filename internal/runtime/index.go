package runtime

// The decide index and the run-time selection kernel of Algorithm 1.
//
// Everything a decision reads about the stored database is a pure
// function of the database version: the point mappings with their
// resident sets, the feasibility rows and the pairwise dRC matrix. An
// Index holds that state once, immutably, so every Manager on one
// version — a fleet's active, shadow, retained and imported managers
// alike — decides against the same arrays, and a device keeps only
// what it learned. Simulate builds one Index per run.
//
// The selection kernel keeps no scratch and works in point-ID space. A
// spec's feasible set is the AND of two precomputed bitset rows over
// point IDs: the e shortest-makespan points, e the number meeting
// S_SPEC, and the m most reliable, m the number meeting F_SPEC, both
// counts found by binary search. Every consumer walks the set bits in
// ID order, so the energies, the dRC row out of the current point and
// an agent's learned values — all indexed by point ID — are read front
// to back. No walker's result depends on the visit order: bounds are
// minima and maxima, energy and hypervolume ties go to the lowest ID,
// and RET ties to the current point, else to the lowest ID. RET scoring
// walks the set twice — once for the min/max normalisation bounds,
// once to score and pick the argmax — recomputing each candidate's raw
// performance and cost instead of storing them. The recomputation
// evaluates the same expressions on the same inputs, and the bounds
// follow math.Min/math.Max's signed-zero rules, so the winner and the
// winning score's bits equal those of a fill/normalise/argmax pipeline
// over materialised vectors in makespan order — the reference
// kernel_ref_test.go holds it to.

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"clrdse/internal/dse"
	"clrdse/internal/mapping"
)

// Index is the immutable decide index over one database version. It is
// safe for concurrent use by any number of managers.
type Index struct {
	db    *dse.Database
	space *mapping.Space
	mat   *mapping.DRCMatrix
	maps  []*mapping.Mapping
	// res holds every stored point's resident set, from which a served
	// transition is priced and planned.
	res *mapping.Residents
	// Each stored point's makespan, reliability and energy, by point
	// ID.
	ms, rel, en []float64
	// The feasibility rows: msAsc holds the makespans in ascending
	// order and relDesc the reliabilities in descending order (NaN
	// last). byMs and byRel hold n+1 rows of words uint64s each over
	// point IDs: row e of byMs marks the e points that lead msAsc, row
	// m of byRel the m that lead relDesc (ties by ID). A bound never
	// splits ties, so row count(ms <= S_SPEC) is exactly the set
	// meeting S_SPEC, and likewise for F_SPEC.
	msAsc, relDesc []float64
	words          int
	byMs, byRel    []uint64
}

// NewIndex builds the decide index for db priced by space. mat, when
// non-nil, must be the pairwise dRC matrix over db.Mappings() (see
// mapping.NewDRCMatrix); nil computes it, |db|^2 dRC evaluations.
// Every stored point's resident set is computed once here (see
// mapping.Residents).
func NewIndex(db *dse.Database, space *mapping.Space, mat *mapping.DRCMatrix) (*Index, error) {
	if err := checkIndexInputs(db, space, mat); err != nil {
		return nil, err
	}
	n := db.Len()
	ms, rel, en := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, pt := range db.Points {
		ms[i], rel[i], en[i] = pt.MakespanMs, pt.Reliability, pt.EnergyMJ
	}
	ix := newIndex(ms, rel, en)
	ix.db, ix.space, ix.mat, ix.maps = db, space, mat, db.Mappings()
	if ix.mat == nil {
		ix.mat = mapping.NewDRCMatrix(space, ix.maps)
	}
	ix.res = mapping.NewResidents(space, ix.maps)
	return ix, nil
}

// newIndex builds the selection arrays of an index over points with
// makespans ms (no NaN), reliabilities rel and energies en, each by
// point ID, together with their feasibility rows: two sorts and 2n row
// copies.
func newIndex(ms, rel, en []float64) *Index {
	n := len(ms)
	ix := &Index{ms: ms, rel: rel, en: en, words: (n + 63) / 64}
	// cmp.Compare orders NaN below every number and -0 equal to +0:
	// makespans ascending, reliabilities descending with NaN last.
	ix.msAsc, ix.byMs = ix.prefixRows(ms, cmp.Compare[float64])
	ix.relDesc, ix.byRel = ix.prefixRows(rel, func(a, b float64) int { return cmp.Compare(b, a) })
	return ix
}

// prefixRows sorts the point IDs by their values under order, ties by
// ID, and returns the values in that order with n+1 rows of ix.words
// words, row k marking the first k IDs.
func (ix *Index) prefixRows(vals []float64, order func(a, b float64) int) ([]float64, []uint64) {
	n, w := len(vals), ix.words
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	slices.SortFunc(ids, func(a, b int) int {
		if c := order(vals[a], vals[b]); c != 0 {
			return c
		}
		return a - b
	})
	sorted := make([]float64, n)
	rows := make([]uint64, (n+1)*w)
	for k, i := range ids {
		sorted[k] = vals[i]
		row := rows[(k+1)*w : (k+2)*w]
		copy(row, rows[k*w:(k+1)*w])
		row[i>>6] |= 1 << (i & 63)
	}
	return sorted, rows
}

func checkIndexInputs(db *dse.Database, space *mapping.Space, mat *mapping.DRCMatrix) error {
	switch {
	case db == nil || db.Len() == 0:
		return fmt.Errorf("runtime: empty design-point database")
	case space == nil:
		return fmt.Errorf("runtime: nil Space")
	case mat != nil && mat.Len() != db.Len():
		return fmt.Errorf("runtime: dRC matrix covers %d points, database has %d", mat.Len(), db.Len())
	}
	return nil
}

// Matrix returns the pairwise dRC matrix the index scores with.
func (ix *Index) Matrix() *mapping.DRCMatrix { return ix.mat }

// Len returns the number of stored points.
func (ix *Index) Len() int { return len(ix.en) }

// AppendPlan appends the reconfiguration plan from stored point from
// to stored point to onto dst: what OnQoSChange returns as the plan of
// that transition, action for action.
func (ix *Index) AppendPlan(dst []mapping.Action, from, to int) []mapping.Action {
	return ix.res.AppendPlan(dst, from, to)
}

// Plan is AppendPlan into a plan of its own, sized exactly (nil when
// from == to or nothing moves).
func (ix *Index) Plan(from, to int) []mapping.Action { return ix.res.Plan(from, to) }

// feasibleSet is a spec's feasible set, Algorithm 1 line 3, without
// materialising it: the point IDs set in both rows, a byMs row and a
// byRel row of equal length.
type feasibleSet struct {
	ms, rel []uint64
}

// word returns word w of the set: the feasible IDs among 64w..64w+63.
func (fs *feasibleSet) word(w int) uint64 { return fs.ms[w] & fs.rel[w] }

// filter returns spec's feasible set and its size. The makespan count
// comes from a binary search of msAsc, the reliability count from one
// of relDesc; each selects its row. A NaN bound fails every
// comparison, as in a linear walk: a NaN S_SPEC keeps every point, a
// NaN F_SPEC admits none.
func (ix *Index) filter(spec QoSSpec) (feasibleSet, int) {
	msAsc, relDesc := ix.msAsc, ix.relDesc
	e, hi := 0, len(msAsc)
	for e < hi {
		h := int(uint(e+hi) >> 1)
		if msAsc[h] > spec.SMaxMs {
			hi = h
		} else {
			e = h + 1
		}
	}
	m, hi := 0, len(relDesc)
	for m < hi {
		h := int(uint(m+hi) >> 1)
		if relDesc[h] >= spec.FMin {
			m = h + 1
		} else {
			hi = h
		}
	}
	w := ix.words
	fs := feasibleSet{ms: ix.byMs[e*w : (e+1)*w], rel: ix.byRel[m*w : (m+1)*w]}
	n := 0
	for k := range fs.ms {
		n += bits.OnesCount64(fs.word(k))
	}
	return fs, n
}

// cheapestFeasible returns the feasible point with the lowest energy
// (ties towards the lowest ID) — the boot choice, and the low-power
// selection of scenario runs — or, flagged as violated, the
// least-violating point when no stored point satisfies spec.
func (ix *Index) cheapestFeasible(spec QoSSpec) (int, bool) {
	fs, _ := ix.filter(spec)
	en := ix.en
	best, bestJ := -1, math.Inf(1)
	for w := range fs.ms {
		for word := fs.word(w); word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			// In ID order a tie never displaces the incumbent, which
			// has the lower ID.
			if j := en[i]; j < bestJ {
				best, bestJ = i, j
			}
		}
	}
	if best >= 0 {
		return best, false
	}
	return ix.leastViolating(spec), true
}

// leastViolating returns the stored point with the smallest relative
// constraint violation for the spec.
func (ix *Index) leastViolating(spec QoSSpec) int {
	best, bestV := 0, math.Inf(1)
	for i, ms := range ix.ms {
		v := 0.0
		if ms > spec.SMaxMs {
			v += (ms - spec.SMaxMs) / spec.SMaxMs
		}
		if rel := ix.rel[i]; rel < spec.FMin {
			v += spec.FMin - rel
		}
		if v < bestV {
			best, bestV = i, v
		}
	}
	return best
}

// selectHypervolume returns the point of the feasible set fs sweeping
// the largest QoS-plane area against the specification's reference
// point (S_SPEC, F_SPEC): (S_SPEC - S) * (F - F_SPEC), together with
// that winning area. Ties break towards the lowest point ID: the walk
// runs in ID order and keeps the first of equal areas. A NaN area
// never wins; when every feasible area is NaN (a NaN S_SPEC, or an
// infinite one against a zero reliability margin) the lowest feasible
// ID wins with its NaN area, so a non-empty set never answers -1.
func (ix *Index) selectHypervolume(fs feasibleSet, spec QoSSpec) (int, float64) {
	ms, rel := ix.ms, ix.rel
	best, bestV := -1, math.Inf(-1)
	first := -1
	for w := range fs.ms {
		for word := fs.word(w); word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			if first < 0 {
				first = i
			}
			if v := (spec.SMaxMs - ms[i]) * (rel[i] - spec.FMin); v > bestV {
				best, bestV = i, v
			}
		}
	}
	if best < 0 && first >= 0 {
		best, bestV = first, (spec.SMaxMs-ms[first])*(rel[first]-spec.FMin)
	}
	return best, bestV
}

// selectRET implements Algorithm 1 lines 4-11 (and its AuRA variant)
// over the feasible set fs, with row the dRC totals out of cur: each
// candidate's performance R(p) = -J_app(p) and dRC from cur (each plus
// gamma times its learned value under AuRA) are min-max normalised
// over the candidates, scored RET = pRC*norm(R) - (1-pRC)*norm(dRC),
// and the argmax is returned with its score. Among equal-score maxima
// it prefers staying at cur (a free transition), otherwise the lowest
// point ID.
func (ix *Index) selectRET(row []float64, cur int, fs feasibleSet, prc float64, ag *Agent) (int, float64) {
	en := ix.en
	aura := ag != nil && ag.Gamma > 0
	var g float64
	var vr, vd []float64
	if aura {
		g, vr, vd = ag.Gamma, ag.VR, ag.VD
	}

	// Pass 1: the normalisation bounds, with the builtin min and max.
	// They equal lower and upper unless an input is NaN, which makes
	// its bound NaN; lower and upper skip NaN, so a NaN bound sends the
	// pass round again with them.
	pLo, pHi := math.Inf(1), math.Inf(-1)
	cLo, cHi := math.Inf(1), math.Inf(-1)
	for w := range fs.ms {
		for word := fs.word(w); word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			p, c := -en[i], row[i]
			if aura {
				// One-step lookahead with learned continuation values:
				// gamma = 0 reduces to the instantaneous uRA scores.
				p += g * vr[i]
				c += g * vd[i]
			}
			pLo, pHi = min(pLo, p), max(pHi, p)
			cLo, cHi = min(cLo, c), max(cHi, c)
		}
	}
	if math.IsNaN(pLo) || math.IsNaN(pHi) || math.IsNaN(cLo) || math.IsNaN(cHi) {
		pLo, pHi = math.Inf(1), math.Inf(-1)
		cLo, cHi = math.Inf(1), math.Inf(-1)
		for w := range fs.ms {
			for word := fs.word(w); word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				p, c := -en[i], row[i]
				if aura {
					p += g * vr[i]
					c += g * vd[i]
				}
				pLo, pHi = lower(pLo, p), upper(pHi, p)
				cLo, cHi = lower(cLo, c), upper(cHi, c)
			}
		}
	}

	// Pass 2: normalise, score and pick. A constant vector normalises
	// to all zeros.
	pFlat, cFlat := pHi == pLo, cHi == cLo
	pSpan, cSpan := pHi-pLo, cHi-cLo
	q := 1 - prc
	best, bestRET := -1, math.Inf(-1)
	for w := range fs.ms {
		for word := fs.word(w); word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			p, c := -en[i], row[i]
			if aura {
				p += g * vr[i]
				c += g * vd[i]
			}
			np, nc := 0.0, 0.0
			if !pFlat {
				np = (p - pLo) / pSpan
			}
			if !cFlat {
				nc = (c - cLo) / cSpan
			}
			ret := prc*np - q*nc
			// In ID order a tie displaces the incumbent only for cur.
			switch {
			case ret > bestRET:
				best, bestRET = i, ret
			case ret == bestRET && i == cur:
				best = i
			}
		}
	}
	return best, bestRET
}

// lower is math.Min(lo, x) for non-NaN inputs: plain comparisons,
// with -0 below +0.
func lower(lo, x float64) float64 {
	if x < lo || (x == lo && math.Signbit(x)) {
		return x
	}
	return lo
}

// upper is math.Max(hi, x) for non-NaN inputs: plain comparisons,
// with +0 above -0.
func upper(hi, x float64) float64 {
	if x > hi || (x == hi && !math.Signbit(x)) {
		return x
	}
	return hi
}

// decider is one decision maker's view of an index: the index plus the
// knobs the decide path reads. Managers and simulations both decide
// through it, so there is one decide path.
type decider struct {
	ix      *Index
	prc     float64
	trigger Trigger
	policy  Policy
	agent   *Agent
}

// decide applies the trigger policy and the (u/Au)RA or hypervolume
// scoring to pick the configuration for the new specification, with
// per-stage spans on rec (which may be nil). It returns the chosen
// point, whether the spec was unsatisfiable (the choice is then the
// least-violating point), and the explained-decision detail the
// journal records.
func (d *decider) decide(cur int, spec QoSSpec, rec StageRecorder) (int, bool, DecisionDetail) {
	ix := d.ix
	endFilter := startStage(rec, StageFilter)
	if d.trigger == TriggerOnViolation && ix.db.Points[cur].Feasible(spec.SMaxMs, spec.FMin) {
		endFilter()
		return cur, false, DecisionDetail{Candidates: 1, TriggerSkipped: true}
	}
	fs, n := ix.filter(spec)
	detail := DecisionDetail{Candidates: n, Infeasible: ix.Len() - n}
	if n == 0 {
		// No stored point satisfies the spec: degrade gracefully to
		// the least-violating point (and pay its dRC if we move).
		next := ix.leastViolating(spec)
		endFilter()
		return next, true, detail
	}
	endFilter()
	endScore := startStage(rec, StageScore)
	var next int
	if d.policy == PolicyHypervolume {
		next, detail.Score = ix.selectHypervolume(fs, spec)
	} else {
		next, detail.Score = ix.selectRET(ix.mat.Row(cur), cur, fs, d.prc, d.agent)
	}
	endScore()
	return next, false, detail
}

// inspections is the number of stored-point inspections a decision
// with this detail performed on an n-point index — the
// FeasibilityChecks accounting: one per stored point for the filter,
// one more per point for the least-violation fallback, none on the
// trigger-skip fast path.
func inspections(n int, detail DecisionDetail) int {
	switch {
	case detail.TriggerSkipped:
		return 0
	case detail.Candidates == 0:
		return 2 * n
	default:
		return n
	}
}

// cheapestInspections is inspections for a cheapestFeasible call: the
// filter, plus the least-violation fallback when it found nothing.
func cheapestInspections(n int, violated bool) int {
	if violated {
		return 2 * n
	}
	return n
}
