package pareto

// Multi-objective quality indicators, used to judge DSE convergence
// and compare fronts between runs (e.g. the GA-budget ablations and
// the "did the optimisation converge" analysis behind the paper's
// Table 7 caveat).

import (
	"fmt"
	"math"
)

// IGD returns the inverted generational distance of a front to a
// reference set: the mean Euclidean distance from each reference point
// to its nearest front member. Lower is better; 0 means the front
// covers the reference set exactly.
func IGD(front, ref [][]float64) float64 {
	if len(ref) == 0 {
		panic("pareto: IGD with empty reference set")
	}
	if len(front) == 0 {
		return math.Inf(1)
	}
	sum := 0.0
	for _, r := range ref {
		best := math.Inf(1)
		for _, f := range front {
			best = math.Min(best, dist(r, f))
		}
		sum += best
	}
	return sum / float64(len(ref))
}

// Coverage returns Zitzler's C(A,B): the fraction of points in b that
// are weakly dominated by (dominated by or equal to) at least one
// point in a. C(A,B)=1 means A entirely covers B; note C is not
// symmetric.
func Coverage(a, b [][]float64) float64 {
	if len(b) == 0 {
		panic("pareto: Coverage with empty B")
	}
	covered := 0
	for _, pb := range b {
		for _, pa := range a {
			if Dominates(pa, pb) || equal(pa, pb) {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(len(b))
}

// Normalize maps each objective of the points onto [0,1] using the
// set's own extent (degenerate dimensions map to 0). Indicators that
// mix objectives of different units (ms vs mJ) should operate on
// normalised copies.
func Normalize(points [][]float64) [][]float64 {
	if len(points) == 0 {
		return nil
	}
	d := len(points[0])
	lo := make([]float64, d)
	hi := make([]float64, d)
	for k := 0; k < d; k++ {
		lo[k], hi[k] = math.Inf(1), math.Inf(-1)
	}
	for _, p := range points {
		if len(p) != d {
			panic(fmt.Sprintf("pareto: Normalize with mixed dimensions %d vs %d", len(p), d))
		}
		for k, v := range p {
			lo[k] = math.Min(lo[k], v)
			hi[k] = math.Max(hi[k], v)
		}
	}
	out := make([][]float64, len(points))
	for i, p := range points {
		q := make([]float64, d)
		for k, v := range p {
			if hi[k] > lo[k] {
				q[k] = (v - lo[k]) / (hi[k] - lo[k])
			}
		}
		out[i] = q
	}
	return out
}

func dist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("pareto: dimension mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
