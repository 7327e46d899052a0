// Package pareto provides the multi-objective machinery used by the
// design-time DSE: Pareto dominance, fast non-dominated sorting,
// crowding distance, a non-dominated archive, and hyper-volume
// computation (exact 2-D sweep and an n-D recursive slicing method).
//
// All objectives are minimised by convention; callers negate
// maximisation objectives (the paper maximises R(X) = -J_app, i.e.
// minimises energy). Infeasible points are handled per Figure 4a: a
// feasible point's fitness is the (positive) hyper-volume it sweeps
// against the reference point R (the constraint vector), while an
// infeasible point's fitness is the negative of the volume between R
// and the point — the further outside the constraints, the worse.
package pareto

import (
	"fmt"
	"math"
	"sort"
)

// Dominates reports whether objective vector a Pareto-dominates b:
// a is no worse in every objective and strictly better in at least
// one. Both vectors are minimised and must have equal length.
func Dominates(a, b []float64) bool {
	if len(a) != len(b) {
		panic(fmt.Sprintf("pareto: dimension mismatch %d vs %d", len(a), len(b)))
	}
	strictly := false
	for i := range a {
		switch {
		case a[i] > b[i]:
			return false
		case a[i] < b[i]:
			strictly = true
		}
	}
	return strictly
}

// NonDominated returns the indices of points whose objective vectors
// are not dominated by any other point. Duplicate vectors are all
// kept. The result preserves input order.
func NonDominated(objs [][]float64) []int {
	var front []int
	for i := range objs {
		dominated := false
		for j := range objs {
			if i != j && Dominates(objs[j], objs[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	return front
}

// Sort performs fast non-dominated sorting (Deb's NSGA-II algorithm)
// and returns the fronts as slices of indices: fronts[0] is the Pareto
// front, fronts[1] the points dominated only by front 0, and so on.
func Sort(objs [][]float64) [][]int {
	n := len(objs)
	domCount := make([]int, n)    // how many points dominate i
	dominated := make([][]int, n) // points that i dominates
	var fronts [][]int
	var current []int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if Dominates(objs[i], objs[j]) {
				dominated[i] = append(dominated[i], j)
			} else if Dominates(objs[j], objs[i]) {
				domCount[i]++
			}
		}
		if domCount[i] == 0 {
			current = append(current, i)
		}
	}
	for len(current) > 0 {
		fronts = append(fronts, current)
		var next []int
		for _, i := range current {
			for _, j := range dominated[i] {
				domCount[j]--
				if domCount[j] == 0 {
					next = append(next, j)
				}
			}
		}
		current = next
	}
	return fronts
}

// Crowding returns the NSGA-II crowding distance of each point within
// the given front (indices into objs). Boundary points in any
// objective get +Inf. Larger is less crowded, i.e. preferred.
func Crowding(objs [][]float64, front []int) map[int]float64 {
	dist := make(map[int]float64, len(front))
	for _, i := range front {
		dist[i] = 0
	}
	if len(front) == 0 {
		return dist
	}
	m := len(objs[front[0]])
	order := make([]int, len(front))
	for k := range m {
		copy(order, front)
		sort.SliceStable(order, func(a, b int) bool {
			return objs[order[a]][k] < objs[order[b]][k]
		})
		lo, hi := order[0], order[len(order)-1]
		dist[lo] = math.Inf(1)
		dist[hi] = math.Inf(1)
		span := objs[hi][k] - objs[lo][k]
		if span == 0 {
			continue
		}
		for p := 1; p < len(order)-1; p++ {
			dist[order[p]] += (objs[order[p+1]][k] - objs[order[p-1]][k]) / span
		}
	}
	return dist
}

// Hypervolume computes the volume of objective space dominated by the
// given (minimised) points and bounded above by the reference point
// ref. Points outside the reference box contribute only their clipped
// part; fully-outside points contribute zero. The implementation is
// an exact sweep for 1-D/2-D and recursive objective slicing (HSO) for
// higher dimensions — exponential in the number of objectives but the
// DSE uses 2-4 objectives, where it is fast.
func Hypervolume(points [][]float64, ref []float64) float64 {
	var inside [][]float64
	for _, p := range points {
		if len(p) != len(ref) {
			panic(fmt.Sprintf("pareto: point dim %d != ref dim %d", len(p), len(ref)))
		}
		q := make([]float64, len(p))
		ok := true
		for i := range p {
			if p[i] >= ref[i] {
				ok = false
				break
			}
			q[i] = p[i]
		}
		if ok {
			inside = append(inside, q)
		}
	}
	if len(inside) == 0 {
		return 0
	}
	return hv(inside, ref)
}

func hv(points [][]float64, ref []float64) float64 {
	d := len(ref)
	switch d {
	case 1:
		best := math.Inf(1)
		for _, p := range points {
			best = math.Min(best, p[0])
		}
		return ref[0] - best
	case 2:
		return hv2(points, ref)
	}
	// HSO: sort by the last objective and sweep slices.
	idx := NonDominated(points)
	pts := make([][]float64, len(idx))
	for i, j := range idx {
		pts[i] = points[j]
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a][d-1] < pts[b][d-1] })
	total := 0.0
	for i := range pts {
		var hi float64
		if i+1 < len(pts) {
			hi = pts[i+1][d-1]
		} else {
			hi = ref[d-1]
		}
		depth := hi - pts[i][d-1]
		if depth <= 0 {
			continue
		}
		// Points at or below this slice project into d-1 dims.
		var slice [][]float64
		for j := 0; j <= i; j++ {
			slice = append(slice, pts[j][:d-1])
		}
		total += depth * hv(slice, ref[:d-1])
	}
	return total
}

func hv2(points [][]float64, ref []float64) float64 {
	pts := make([][]float64, len(points))
	copy(pts, points)
	sort.Slice(pts, func(a, b int) bool {
		if pts[a][0] != pts[b][0] {
			return pts[a][0] < pts[b][0]
		}
		return pts[a][1] < pts[b][1]
	})
	area := 0.0
	yBound := ref[1]
	for _, p := range pts {
		if p[1] < yBound {
			area += (ref[0] - p[0]) * (yBound - p[1])
			yBound = p[1]
		}
	}
	return area
}

// Contribution returns the exclusive hyper-volume contribution of each
// point: the loss in total hyper-volume if that point were removed.
func Contribution(points [][]float64, ref []float64) []float64 {
	total := Hypervolume(points, ref)
	contrib := make([]float64, len(points))
	if len(points) == 1 {
		contrib[0] = total
		return contrib
	}
	rest := make([][]float64, 0, len(points)-1)
	for i := range points {
		rest = rest[:0]
		for j := range points {
			if j != i {
				rest = append(rest, points[j])
			}
		}
		contrib[i] = total - Hypervolume(rest, ref)
	}
	return contrib
}

func equal(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
