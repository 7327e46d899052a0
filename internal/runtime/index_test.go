package runtime

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"testing"

	"clrdse/internal/rng"
)

// linearFeasible is the feasibility filter as a linear walk of the
// makespan order: the prefix end and the feasible ranks in order.
func linearFeasible(ix *Index, spec QoSSpec) (int, []int) {
	var ranks []int
	for k, m := range ix.ms {
		if m > spec.SMaxMs {
			return k, ranks
		}
		if ix.rel[k] >= spec.FMin {
			ranks = append(ranks, k)
		}
	}
	return len(ix.ms), ranks
}

// setRanks lists the ranks of a feasible set in walking order.
func setRanks(fs feasibleSet) []int {
	var ranks []int
	for w, word := range fs.row {
		if w == len(fs.row)-1 {
			word = fs.last
		}
		for ; word != 0; word &= word - 1 {
			ranks = append(ranks, w<<6|bits.TrailingZeros64(word))
		}
	}
	return ranks
}

// TestFeasibilityMatchesLinearScan holds the bitset filter to a linear
// walk on random indexes across word boundaries, with reliabilities
// drawn from a small set (heavy ties, both signed zeros, NaN) and
// specs at, above and below every stored bound, NaN and signed zeros
// included.
func TestFeasibilityMatchesLinearScan(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	relVals := []float64{negZero, 0, 0.5, 0.9, 0.95, 0.99, 0.999, 1, nan}
	r := rng.New(42)
	for _, n := range []int{1, 2, 63, 64, 65, 130, 500} {
		for rep := 0; rep < 4; rep++ {
			ids := make([]int32, n)
			for k, i := range r.Perm(n) {
				ids[k] = int32(i)
			}
			ms, rel, en := make([]float64, n), make([]float64, n), make([]float64, n)
			for k := range ms {
				ms[k] = float64(1 + r.Intn(n/2+1)) // ties in makespan too
				rel[k] = relVals[r.Intn(len(relVals))]
			}
			sort.Float64s(ms)
			ix := newRankIndex(ids, ms, rel, en)

			// Every stored value as a bound, plus bounds beyond them.
			fVals := append(distinct(rel), -1, math.Inf(-1), 2, math.Inf(1), nan, negZero, 0,
				math.Nextafter(1, 2), math.Nextafter(0, -1))
			sVals := append(distinct(ms), ms[0]/2, ms[n-1]*2, math.Inf(-1), math.Inf(1), nan, negZero, 0)
			for _, f := range fVals {
				for _, s := range sVals {
					spec := QoSSpec{SMaxMs: s, FMin: f}
					wantEnd, wantRanks := linearFeasible(ix, spec)
					fs, gotN := ix.filter(spec)
					gotRanks := setRanks(fs)
					if fs.end != wantEnd || gotN != len(wantRanks) {
						t.Fatalf("n=%d rep=%d spec=%+v: filter (end %d, n %d), linear walk (%d, %d)",
							n, rep, spec, fs.end, gotN, wantEnd, len(wantRanks))
					}
					if !slices.Equal(gotRanks, wantRanks) {
						t.Fatalf("n=%d rep=%d spec=%+v: candidate ranks %v, linear walk %v", n, rep, spec, gotRanks, wantRanks)
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
