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
// The selection kernel keeps no scratch: the feasible set is the
// makespan prefix of the index filtered by reliability, and RET
// scoring walks it twice — once for the min/max normalisation bounds,
// once to score and pick the argmax — recomputing each candidate's raw
// performance and cost instead of storing them. The recomputation
// evaluates the same expressions on the same inputs, and the bounds
// follow math.Min/math.Max's signed-zero rules, so the winner and the
// winning score's bits equal those of a fill/normalise/argmax pipeline
// over materialised vectors — the reference kernel_ref_test.go holds
// it to.

import (
	"fmt"
	"math"
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
	// in contiguous arrays, so the feasibility filter stops at the first
	// rank over the makespan bound and scoring streams the prefix.
	ids         []int32
	ms, rel, en []float64
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
	ix := &Index{db: db, space: space, mat: mat, maps: db.Mappings()}
	if ix.mat == nil {
		ix.mat = mapping.NewDRCMatrix(space, ix.maps)
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
	ix.ids = make([]int32, n)
	ix.ms = make([]float64, n)
	ix.rel = make([]float64, n)
	ix.en = make([]float64, n)
	for k, i := range order {
		pt := db.Points[i]
		ix.ids[k] = int32(i)
		ix.ms[k], ix.rel[k], ix.en[k] = pt.MakespanMs, pt.Reliability, pt.EnergyMJ
	}
	return ix, nil
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

// filter returns the makespan prefix [0,end) that can satisfy spec and
// how many points in it also meet the reliability bound — the feasible
// set of Algorithm 1, line 3, without materialising it.
func (ix *Index) filter(spec QoSSpec) (end, n int) {
	rel := ix.rel
	for k, m := range ix.ms {
		if m > spec.SMaxMs {
			return k, n
		}
		if rel[k] >= spec.FMin {
			n++
		}
	}
	return len(ix.ms), n
}

// cheapestFeasible returns the feasible point with the lowest energy
// (ties towards the lowest ID) — the boot choice, and the low-power
// selection of scenario runs — or, flagged as violated, the
// least-violating point when no stored point satisfies spec.
func (ix *Index) cheapestFeasible(spec QoSSpec) (int, bool) {
	end, _ := ix.filter(spec)
	best, bestJ := -1, math.Inf(1)
	for k := 0; k < end; k++ {
		if !(ix.rel[k] >= spec.FMin) {
			continue
		}
		i, j := int(ix.ids[k]), ix.en[k]
		if j < bestJ || (j == bestJ && i < best) {
			best, bestJ = i, j
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

// selectHypervolume returns the feasible point in the makespan prefix
// [0,end) sweeping the largest QoS-plane area against the
// specification's reference point (S_SPEC, F_SPEC):
// (S_SPEC - S) * (F - F_SPEC), together with that winning area. Ties
// break towards the lowest point ID.
func (ix *Index) selectHypervolume(end int, spec QoSSpec) (int, float64) {
	best, bestV := -1, math.Inf(-1)
	for k := 0; k < end; k++ {
		r := ix.rel[k]
		if !(r >= spec.FMin) {
			continue
		}
		i := int(ix.ids[k])
		v := (spec.SMaxMs - ix.ms[k]) * (r - spec.FMin)
		if v > bestV || (v == bestV && i < best) {
			best, bestV = i, v
		}
	}
	return best, bestV
}

// selectRET implements Algorithm 1 lines 4-11 (and its AuRA variant)
// over the feasible points of the makespan prefix [0,end), with row
// the dRC totals out of cur: each candidate's performance
// R(p) = -J_app(p) and dRC from cur (each plus
// gamma times its learned value under AuRA) are min-max normalised
// over the candidates, scored RET = pRC*norm(R) - (1-pRC)*norm(dRC),
// and the argmax is returned with its score. Among equal-score maxima
// it prefers staying at cur (a free transition), otherwise the lowest
// point ID.
func (ix *Index) selectRET(row []float64, cur, end int, fmin, prc float64, ag *Agent) (int, float64) {
	ids, rel, en := ix.ids[:end], ix.rel[:end], ix.en[:end]
	aura := ag != nil && ag.Gamma > 0
	var g float64
	var vr, vd []float64
	if aura {
		g, vr, vd = ag.Gamma, ag.VR, ag.VD
	}

	// Pass 1: the normalisation bounds.
	pLo, pHi := math.Inf(1), math.Inf(-1)
	cLo, cHi := math.Inf(1), math.Inf(-1)
	for k, r := range rel {
		if !(r >= fmin) {
			continue
		}
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

	// Pass 2: normalise, score and pick. A constant vector normalises
	// to all zeros.
	pFlat, cFlat := pHi == pLo, cHi == cLo
	pSpan, cSpan := pHi-pLo, cHi-cLo
	q := 1 - prc
	best, bestRET := -1, math.Inf(-1)
	for k, r := range rel {
		if !(r >= fmin) {
			continue
		}
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
	end, n := ix.filter(spec)
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
		next, detail.Score = ix.selectHypervolume(end, spec)
	} else {
		next, detail.Score = ix.selectRET(ix.mat.Row(cur), cur, end, spec.FMin, d.prc, d.agent)
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
