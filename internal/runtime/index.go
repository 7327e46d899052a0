package runtime

// The decide index and the run-time selection kernel of Algorithm 1.
//
// Everything a decision reads about the stored database is a pure
// function of the database version: the point mappings, the
// makespan-sorted feasibility order and the pairwise dRC matrix. An
// Index holds that state once, immutably, so every Manager on one
// version — a fleet's active, shadow, retained and imported managers
// alike — decides against the same arrays, and a device keeps only
// what it learned. Simulate builds one Index per run.
//
// The selection kernel keeps no scratch. A spec's feasible set is one
// precomputed bitset row — the m most reliable points, m the number
// meeting F_SPEC — cut at the makespan prefix meeting S_SPEC, both
// found by binary search; every consumer walks its set bits in
// makespan-rank order, so it visits exactly the candidates a linear
// filter would, in the same order. RET scoring walks the set twice —
// once for the min/max normalisation bounds, once to score and pick
// the argmax — recomputing each candidate's raw performance and cost
// instead of storing them. The recomputation evaluates the same
// expressions on the same inputs, and the bounds follow
// math.Min/math.Max's signed-zero rules, so the winner and the winning
// score's bits equal those of a fill/normalise/argmax pipeline over
// materialised vectors — the reference kernel_ref_test.go holds it to.

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

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
	// The makespan order: rank k holds point ids[k] (ascending
	// makespan, ties by ID) with its makespan, reliability and energy
	// in contiguous arrays, so the makespan bound cuts a prefix of ranks
	// and scoring reads candidates by rank.
	ids         []int32
	ms, rel, en []float64
	// The feasibility bitsets: relDesc holds the stored reliabilities
	// in descending order (NaN last), and masks holds n+1 rows of words
	// uint64s each, row m marking by makespan rank the m points that
	// lead relDesc. Reliability ties are never split by a bound, so row
	// count(rel >= F_SPEC) is exactly the set meeting F_SPEC.
	relDesc []float64
	words   int
	masks   []uint64
}

// NewIndex builds the decide index for db priced by space. mat, when
// non-nil, must be the pairwise dRC matrix over db.Mappings() (see
// mapping.NewDRCMatrix); nil computes it, |db|^2 dRC evaluations.
// Managers and simulations that share one matrix share its
// transition-cost table too.
func NewIndex(db *dse.Database, space *mapping.Space, mat *mapping.DRCMatrix) (*Index, error) {
	if err := checkIndexInputs(db, space, mat); err != nil {
		return nil, err
	}
	n := db.Len()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := order[a], order[b]
		ma, mb := db.Points[pa].MakespanMs, db.Points[pb].MakespanMs
		if ma != mb {
			return ma < mb
		}
		return pa < pb
	})
	ids := make([]int32, n)
	ms, rel, en := make([]float64, n), make([]float64, n), make([]float64, n)
	for k, i := range order {
		pt := db.Points[i]
		ids[k] = int32(i)
		ms[k], rel[k], en[k] = pt.MakespanMs, pt.Reliability, pt.EnergyMJ
	}
	ix := newRankIndex(ids, ms, rel, en)
	ix.db, ix.space, ix.mat, ix.maps = db, space, mat, db.Mappings()
	if ix.mat == nil {
		ix.mat = mapping.NewDRCMatrix(space, ix.maps)
	}
	return ix, nil
}

// newRankIndex builds the selection arrays of an index over points in
// makespan order — rank k is point ids[k], with makespan ms[k]
// (ascending, no NaN), reliability rel[k] and energy en[k] — together
// with their feasibility bitsets: one sort of the reliabilities and n
// row copies.
func newRankIndex(ids []int32, ms, rel, en []float64) *Index {
	n := len(ids)
	ix := &Index{ids: ids, ms: ms, rel: rel, en: en, words: (n + 63) / 64}
	byRel := make([]int, n) // ranks, most reliable first
	for k := range byRel {
		byRel[k] = k
	}
	// cmp.Compare orders NaN below every number and -0 equal to +0, so
	// this sorts descending, NaN last, ties in rank order.
	slices.SortFunc(byRel, func(a, b int) int {
		if c := cmp.Compare(rel[b], rel[a]); c != 0 {
			return c
		}
		return a - b
	})
	ix.relDesc = make([]float64, n)
	ix.masks = make([]uint64, (n+1)*ix.words)
	for m, k := range byRel {
		ix.relDesc[m] = rel[k]
		row := ix.masks[(m+1)*ix.words : (m+2)*ix.words]
		copy(row, ix.masks[m*ix.words:(m+1)*ix.words])
		row[k>>6] |= 1 << (k & 63)
	}
	return ix
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

// Matrix returns the pairwise dRC matrix the index scores with; its
// transition-cost table is shared by every manager on the index.
func (ix *Index) Matrix() *mapping.DRCMatrix { return ix.mat }

// Len returns the number of stored points.
func (ix *Index) Len() int { return len(ix.ids) }

// feasibleSet is a spec's feasible set, Algorithm 1 line 3, without
// materialising it: the makespan ranks below end whose bits are set in
// row, a mask row cut to the words the prefix touches. last is row's
// final word with the ranks from end on cleared; walkers read it in
// place of that word.
type feasibleSet struct {
	row  []uint64
	last uint64
	end  int
}

// filter returns spec's feasible set and its size. end is the first
// makespan rank over S_SPEC, found by binary search of the ascending
// makespans; the reliability count by binary search of relDesc selects
// the mask row. A NaN bound fails every comparison, as in a linear
// walk: a NaN S_SPEC keeps every rank, a NaN F_SPEC admits no point.
func (ix *Index) filter(spec QoSSpec) (feasibleSet, int) {
	ms, relDesc := ix.ms, ix.relDesc
	end, hi := 0, len(ms)
	for end < hi {
		h := int(uint(end+hi) >> 1)
		if ms[h] > spec.SMaxMs {
			hi = h
		} else {
			end = h + 1
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
	nw := (end + 63) >> 6
	fs := feasibleSet{row: ix.masks[m*ix.words : m*ix.words+nw], end: end}
	n := 0
	if nw > 0 {
		fs.last = fs.row[nw-1] & (^uint64(0) >> (uint(-end) & 63))
		for _, w := range fs.row[:nw-1] {
			n += bits.OnesCount64(w)
		}
		n += bits.OnesCount64(fs.last)
	}
	return fs, n
}

// cheapestFeasible returns the feasible point with the lowest energy
// (ties towards the lowest ID) — the boot choice, and the low-power
// selection of scenario runs — or, flagged as violated, the
// least-violating point when no stored point satisfies spec.
func (ix *Index) cheapestFeasible(spec QoSSpec) (int, bool) {
	fs, _ := ix.filter(spec)
	best, bestJ := -1, math.Inf(1)
	for w, word := range fs.row {
		if w == len(fs.row)-1 {
			word = fs.last
		}
		for ; word != 0; word &= word - 1 {
			k := w<<6 | bits.TrailingZeros64(word)
			i, j := int(ix.ids[k]), ix.en[k]
			if j < bestJ || (j == bestJ && i < best) {
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
	for i, pt := range ix.db.Points {
		v := 0.0
		if pt.MakespanMs > spec.SMaxMs {
			v += (pt.MakespanMs - spec.SMaxMs) / spec.SMaxMs
		}
		if pt.Reliability < spec.FMin {
			v += spec.FMin - pt.Reliability
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
// that winning area. Ties break towards the lowest point ID.
func (ix *Index) selectHypervolume(fs feasibleSet, spec QoSSpec) (int, float64) {
	best, bestV := -1, math.Inf(-1)
	for w, word := range fs.row {
		if w == len(fs.row)-1 {
			word = fs.last
		}
		for ; word != 0; word &= word - 1 {
			k := w<<6 | bits.TrailingZeros64(word)
			i := int(ix.ids[k])
			v := (spec.SMaxMs - ix.ms[k]) * (ix.rel[k] - spec.FMin)
			if v > bestV || (v == bestV && i < best) {
				best, bestV = i, v
			}
		}
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
	ids, en := ix.ids, ix.en
	last := len(fs.row) - 1
	aura := ag != nil && ag.Gamma > 0
	var g float64
	var vr, vd []float64
	if aura {
		g, vr, vd = ag.Gamma, ag.VR, ag.VD
	}

	// Pass 1: the normalisation bounds.
	pLo, pHi := math.Inf(1), math.Inf(-1)
	cLo, cHi := math.Inf(1), math.Inf(-1)
	for w, word := range fs.row {
		if w == last {
			word = fs.last
		}
		for ; word != 0; word &= word - 1 {
			k := w<<6 | bits.TrailingZeros64(word)
			i := ids[k]
			p, c := -en[k], row[i]
			if aura {
				// One-step lookahead with learned continuation values:
				// gamma = 0 reduces to the instantaneous uRA scores.
				p += g * vr[i]
				c += g * vd[i]
			}
			pLo, pHi = lower(pLo, p), upper(pHi, p)
			cLo, cHi = lower(cLo, c), upper(cHi, c)
		}
	}

	// Pass 2: normalise, score and pick. A constant vector normalises
	// to all zeros.
	pFlat, cFlat := pHi == pLo, cHi == cLo
	pSpan, cSpan := pHi-pLo, cHi-cLo
	q := 1 - prc
	best, bestRET := -1, math.Inf(-1)
	for w, word := range fs.row {
		if w == last {
			word = fs.last
		}
		for ; word != 0; word &= word - 1 {
			k := w<<6 | bits.TrailingZeros64(word)
			i := ids[k]
			p, c := -en[k], row[i]
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
			id := int(i)
			switch {
			case ret > bestRET:
				best, bestRET = id, ret
			case ret == bestRET && best != cur && (id == cur || id < best):
				best = id
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
