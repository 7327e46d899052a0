package pareto

import (
	"math"
	"testing"

	"clrdse/internal/rng"
)

func TestIGDZeroWhenCovering(t *testing.T) {
	ref := [][]float64{{0, 1}, {1, 0}, {0.5, 0.5}}
	if got := IGD(ref, ref); got != 0 {
		t.Errorf("IGD(self) = %v, want 0", got)
	}
}

func TestIGDDistance(t *testing.T) {
	ref := [][]float64{{0, 0}, {1, 0}}
	front := [][]float64{{0, 1}} // distance 1 to (0,0), sqrt(2) to (1,0)
	want := (1 + math.Sqrt2) / 2
	if got := IGD(front, ref); math.Abs(got-want) > 1e-12 {
		t.Errorf("IGD = %v, want %v", got, want)
	}
}

func TestIGDEmptyFront(t *testing.T) {
	if !math.IsInf(IGD(nil, [][]float64{{0}}), 1) {
		t.Error("IGD of empty front should be +Inf")
	}
}

func TestIGDPanicsOnEmptyRef(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	IGD([][]float64{{0}}, nil)
}

func TestIGDImprovesWithBetterFront(t *testing.T) {
	r := rng.New(1)
	ref := make([][]float64, 20)
	for i := range ref {
		x := float64(i) / 19
		ref[i] = []float64{x, 1 - x}
	}
	near := make([][]float64, 20)
	far := make([][]float64, 20)
	for i := range ref {
		near[i] = []float64{ref[i][0] + 0.01*r.Float64(), ref[i][1] + 0.01*r.Float64()}
		far[i] = []float64{ref[i][0] + 0.3, ref[i][1] + 0.3}
	}
	if IGD(near, ref) >= IGD(far, ref) {
		t.Error("closer front should have lower IGD")
	}
}

func TestCoverage(t *testing.T) {
	a := [][]float64{{0, 0}}
	b := [][]float64{{1, 1}, {2, 2}}
	if got := Coverage(a, b); got != 1 {
		t.Errorf("C(A,B) = %v, want 1 (A dominates everything)", got)
	}
	if got := Coverage(b, a); got != 0 {
		t.Errorf("C(B,A) = %v, want 0", got)
	}
	// Equal points are weakly dominated.
	if got := Coverage(a, a); got != 1 {
		t.Errorf("C(A,A) = %v, want 1", got)
	}
	// Partial coverage.
	c := [][]float64{{0.5, 0.5}}
	d := [][]float64{{1, 1}, {0, 2}}
	if got := Coverage(c, d); got != 0.5 {
		t.Errorf("partial coverage = %v, want 0.5", got)
	}
}

func TestCoveragePanicsOnEmptyB(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Coverage([][]float64{{1}}, nil)
}

func TestNormalize(t *testing.T) {
	pts := [][]float64{{10, 200}, {20, 100}, {15, 150}}
	n := Normalize(pts)
	if n[0][0] != 0 || n[1][0] != 1 || n[0][1] != 1 || n[1][1] != 0 {
		t.Errorf("Normalize extremes wrong: %v", n)
	}
	if math.Abs(n[2][0]-0.5) > 1e-12 || math.Abs(n[2][1]-0.5) > 1e-12 {
		t.Errorf("Normalize midpoint wrong: %v", n[2])
	}
	// Degenerate dimension maps to 0.
	d := Normalize([][]float64{{5, 1}, {5, 2}})
	if d[0][0] != 0 || d[1][0] != 0 {
		t.Errorf("degenerate dimension should map to 0: %v", d)
	}
	// Original untouched.
	if pts[0][0] != 10 {
		t.Error("Normalize mutated input")
	}
	if Normalize(nil) != nil {
		t.Error("Normalize(nil) should be nil")
	}
}
