package runtime

import (
	"math"
	"math/bits"
	"slices"
	"testing"

	"clrdse/internal/rng"
)

// newRankIndex builds an index from points listed in makespan order:
// rank k is point ids[k], with makespan ms[k] (ascending, no NaN),
// reliability rel[k] and energy en[k].
func newRankIndex(ids []int32, ms, rel, en []float64) *Index {
	n := len(ids)
	msID, relID, enID := make([]float64, n), make([]float64, n), make([]float64, n)
	for k, i := range ids {
		msID[i], relID[i], enID[i] = ms[k], rel[k], en[k]
	}
	return newIndex(msID, relID, enID)
}

// linearFeasible is the feasibility filter as a linear walk in point-ID
// order: the IDs, ascending, whose makespan is not over S_SPEC and
// whose reliability meets F_SPEC. A NaN S_SPEC excludes no point, as a
// walk of the makespan order that stops at the first point over it.
func linearFeasible(ms, rel []float64, spec QoSSpec) []int {
	var ids []int
	for i := range ms {
		if !(ms[i] > spec.SMaxMs) && rel[i] >= spec.FMin {
			ids = append(ids, i)
		}
	}
	return ids
}

// setIDs lists the IDs of a feasible set in walking order.
func setIDs(fs feasibleSet) []int {
	var ids []int
	for w := range fs.ms {
		for word := fs.word(w); word != 0; word &= word - 1 {
			ids = append(ids, w<<6|bits.TrailingZeros64(word))
		}
	}
	return ids
}

// TestFeasibilityMatchesLinearScan holds the bitset filter to a linear
// walk in ID order on random indexes across word boundaries, with
// makespans tied and reliabilities drawn from a small set (heavy ties,
// both signed zeros, NaN) and specs at, above and below every stored
// bound, NaN and signed zeros included.
func TestFeasibilityMatchesLinearScan(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	relVals := []float64{negZero, 0, 0.5, 0.9, 0.95, 0.99, 0.999, 1, nan}
	r := rng.New(42)
	for _, n := range []int{1, 2, 63, 64, 65, 130, 500} {
		for rep := 0; rep < 4; rep++ {
			ms, rel, en := make([]float64, n), make([]float64, n), make([]float64, n)
			for i := range ms {
				ms[i] = float64(1 + r.Intn(n/2+1)) // ties in makespan too
				rel[i] = relVals[r.Intn(len(relVals))]
			}
			ix := newIndex(ms, rel, en)

			// Every stored value as a bound, plus bounds beyond them.
			fVals := append(distinct(rel), -1, math.Inf(-1), 2, math.Inf(1), nan, negZero, 0,
				math.Nextafter(1, 2), math.Nextafter(0, -1))
			lo, hi := slices.Min(ms), slices.Max(ms)
			sVals := append(distinct(ms), lo/2, hi*2, math.Inf(-1), math.Inf(1), nan, negZero, 0)
			for _, f := range fVals {
				for _, s := range sVals {
					spec := QoSSpec{SMaxMs: s, FMin: f}
					want := linearFeasible(ms, rel, spec)
					fs, gotN := ix.filter(spec)
					if got := setIDs(fs); gotN != len(want) || !slices.Equal(got, want) {
						t.Fatalf("n=%d rep=%d spec=%+v: filter gives %d IDs %v, linear walk %d IDs %v",
							n, rep, spec, gotN, got, len(want), want)
					}
				}
			}
		}
	}
}

func distinct(xs []float64) []float64 {
	c := slices.Clone(xs)
	slices.Sort(c)
	return slices.Compact(c)
}

// permutations returns every ordering of the IDs 0..n-1.
func permutations(n int) [][]int32 {
	if n == 0 {
		return [][]int32{nil}
	}
	var out [][]int32
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := slices.Insert(slices.Clone(p), at, int32(n-1))
			out = append(out, q)
		}
	}
	return out
}

// rankIndex builds an index whose makespan order is ids (every point
// at makespan ms, all of reliability 1) from per-ID energies, the way
// newRankIndex takes them: by rank.
func rankIndex(ids []int32, ms float64, en []float64) *Index {
	n := len(ids)
	msR, rel, enR := make([]float64, n), make([]float64, n), make([]float64, n)
	for k, i := range ids {
		msR[k], rel[k], enR[k] = ms, 1, en[i]
	}
	return newRankIndex(ids, msR, rel, enR)
}

// TestKernelNaNCandidates pins what the selection walkers do with NaN
// inputs, in every makespan order of the points: a NaN performance or
// cost sets no normalisation bound of its own coordinate (lower and
// upper skip it), while the candidate's other, finite value still
// bounds the other coordinate; the candidate's score is NaN, so it
// never wins, not even as the current point. A NaN energy never wins
// the boot choice either. The expected winners and scores are worked
// out by hand.
func TestKernelNaNCandidates(t *testing.T) {
	nan := math.NaN()
	ret := func(prc, np, nc float64) float64 { return prc*np - (1-prc)*nc }
	cases := []struct {
		name      string
		en, row   []float64 // by point ID
		vr, vd    []float64 // by point ID; nil: uRA
		cur       int
		prc       float64
		want      int
		wantScore float64
	}{
		// p = [NaN, -2, -4, -3] bounds [-4, -2]; c = [0, 1, 2, 10] bounds
		// [0, 10], its 0 from the NaN-energy current point.
		{name: "nan-energy", en: []float64{nan, 2, 4, 3}, row: []float64{0, 1, 2, 10},
			cur: 0, prc: 0.5, want: 1, wantScore: ret(0.5, 1, 1.0/10)},
		// p = [-2, -1, NaN] bounds [-2, -1]; c = [0, 0.5, 1] bounds [0, 1],
		// its 1 from the NaN-VR point.
		{name: "nan-vr", en: []float64{2, 1, 0.5}, row: []float64{0, 0.5, 1},
			vr: []float64{0, 0, nan}, vd: []float64{0, 0, 0},
			cur: 0, prc: 0.5, want: 1, wantScore: ret(0.5, 1, 0.5)},
		// p = [-1, -0.5, -3, -4] bounds [-4, -0.5], its -0.5 from the
		// NaN-VD point; c = [5, NaN, 1, 2] bounds [1, 5].
		{name: "nan-vd", en: []float64{1, 0.5, 3, 4}, row: []float64{5, 0, 1, 2},
			vr: []float64{0, 0, 0, 0}, vd: []float64{0, nan, 0, 0},
			cur: 3, prc: 0.25, want: 2, wantScore: ret(0.25, 1/3.5, 0)},
		// The current point's NaN cost loses to every other candidate.
		{name: "nan-cost-current", en: []float64{1, 1, 1}, row: []float64{0, 2, 4},
			vr: []float64{0, 0, 0}, vd: []float64{nan, 0, 0},
			cur: 0, prc: 0.5, want: 1, wantScore: ret(0.5, 0, 0)},
	}
	for _, c := range cases {
		var ag *Agent
		if c.vr != nil {
			ag = &Agent{Gamma: 0.8, VR: c.vr, VD: c.vd}
		}
		for _, ids := range permutations(len(c.en)) {
			ix := rankIndex(ids, 0, c.en)
			fs, _ := ix.filter(QoSSpec{FMin: 0.5})
			got, score := ix.selectRET(c.row, c.cur, fs, c.prc, ag)
			if got != c.want || math.Float64bits(score) != math.Float64bits(c.wantScore) {
				t.Fatalf("%s, makespan order %v: selectRET = (%d, %v), want (%d, %v)", c.name, ids, got, score, c.want, c.wantScore)
			}
		}
	}

	for _, c := range []struct {
		en   []float64
		want int
	}{
		{[]float64{nan, 2, 2, 5}, 1},
		{[]float64{2, nan, 1, nan}, 2},
	} {
		for _, ids := range permutations(len(c.en)) {
			got, violated := rankIndex(ids, 0, c.en).cheapestFeasible(QoSSpec{FMin: 0.5})
			if got != c.want || violated {
				t.Fatalf("energies %v, makespan order %v: cheapestFeasible = (%d, %v), want (%d, false)", c.en, ids, got, violated, c.want)
			}
		}
	}
}

// TestHypervolumeZeroAreaTie pins the score selectHypervolume reports
// when the largest area is zero and the tied points differ in its
// sign, in both makespan orders: the winner is the lowest ID and the
// score its own area. A stored reliability of -0 against F_SPEC = +0
// gives an area of -0.
func TestHypervolumeZeroAreaTie(t *testing.T) {
	negZero := math.Copysign(0, -1)
	spec := QoSSpec{SMaxMs: 3, FMin: 0}
	for _, rel := range [][]float64{{negZero, 0}, {0, negZero}} { // by point ID
		for _, ids := range permutations(2) {
			relR := []float64{rel[ids[0]], rel[ids[1]]}
			ix := newRankIndex(ids, []float64{1, 2}, relR, make([]float64, 2))
			fs, n := ix.filter(spec)
			got, score := ix.selectHypervolume(fs, spec)
			if n != 2 || got != 0 || math.Signbit(score) != math.Signbit(rel[0]) || score != 0 {
				t.Fatalf("reliabilities %v, makespan order %v: %d candidates, selectHypervolume = (%d, %v/%#x), want 2, (0, %v)",
					rel, ids, n, got, score, math.Float64bits(score), rel[0])
			}
		}
	}
}

// TestHypervolumeAllAreasNaN pins the hypervolume choice when no
// feasible area is a number: S_SPEC = +Inf against F_SPEC at the
// highest stored reliability makes every feasible area (+Inf - S)·0 =
// NaN, and a NaN S_SPEC makes every area NaN. The lowest feasible ID
// wins with its NaN area, and a manager served such a spec decides
// instead of indexing point -1.
func TestHypervolumeAllAreasNaN(t *testing.T) {
	kd := getKernelDBs(t)[80]
	top := math.Inf(-1)
	for _, p := range kd.db.Points {
		if p.Reliability > top {
			top = p.Reliability
		}
	}
	ix, err := NewIndex(kd.db, kd.space, kd.mat)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []QoSSpec{{SMaxMs: math.Inf(1), FMin: top}, {SMaxMs: math.NaN(), FMin: 0}} {
		fs, n := ix.filter(spec)
		ids := setIDs(fs)
		if n == 0 {
			t.Fatalf("spec %+v: no feasible point", spec)
		}
		if got, score := ix.selectHypervolume(fs, spec); got != ids[0] || !math.IsNaN(score) {
			t.Errorf("spec %+v: selectHypervolume = (%d, %v), want (%d, NaN)", spec, got, score, ids[0])
		}
		m, err := NewManager(ManagerParams{Index: ix, PRC: 0.5, Trigger: TriggerAlways, Policy: PolicyHypervolume},
			QoSSpec{SMaxMs: 1e9, FMin: 0})
		if err != nil {
			t.Fatal(err)
		}
		if d := m.OnQoSChange(spec); d.To != ids[0] || d.Violated {
			t.Errorf("spec %+v: manager chose %d (violated %v), want %d", spec, d.To, d.Violated, ids[0])
		}
	}
}
