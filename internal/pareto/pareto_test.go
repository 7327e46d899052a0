package pareto

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"clrdse/internal/rng"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 1}, []float64{2, 2}, true},
		{[]float64{1, 2}, []float64{2, 1}, false},
		{[]float64{1, 1}, []float64{1, 1}, false}, // equal: no strict improvement
		{[]float64{1, 1}, []float64{1, 2}, true},
		{[]float64{2, 2}, []float64{1, 1}, false},
		{[]float64{0}, []float64{1}, true},
	}
	for _, tc := range cases {
		if got := Dominates(tc.a, tc.b); got != tc.want {
			t.Errorf("Dominates(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestDominatesPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Dominates([]float64{1}, []float64{1, 2})
}

func TestNonDominated(t *testing.T) {
	objs := [][]float64{
		{1, 5}, // front
		{2, 4}, // front
		{3, 3}, // front
		{3, 5}, // dominated by {1,5}? no: 3>1, 5==5 -> dominated by (1,5)? (1,5) vs (3,5): 1<3,5<=5 yes dominated
		{4, 4}, // dominated by (3,3) and (2,4)
	}
	got := NonDominated(objs)
	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("NonDominated = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NonDominated = %v, want %v", got, want)
		}
	}
}

func TestSortFronts(t *testing.T) {
	objs := [][]float64{
		{1, 1}, // front 0, dominates everything
		{2, 2}, // front 1, dominated only by (1,1)
		{3, 3}, // front 3: dominated by (1,1), (2,2) and (2,3)
		{2, 3}, // front 2: dominated by (1,1) and (2,2)
	}
	fronts := Sort(objs)
	want := [][]int{{0}, {1}, {3}, {2}}
	if len(fronts) != len(want) {
		t.Fatalf("fronts = %v, want %v", fronts, want)
	}
	for k := range want {
		sort.Ints(fronts[k])
		if len(fronts[k]) != len(want[k]) || fronts[k][0] != want[k][0] {
			t.Errorf("front %d = %v, want %v", k, fronts[k], want[k])
		}
	}
}

func TestSortPartitionsAllPoints(t *testing.T) {
	r := rng.New(1)
	objs := make([][]float64, 60)
	for i := range objs {
		objs[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	fronts := Sort(objs)
	seen := map[int]bool{}
	for _, f := range fronts {
		for _, i := range f {
			if seen[i] {
				t.Fatalf("point %d in two fronts", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != len(objs) {
		t.Fatalf("fronts cover %d of %d points", len(seen), len(objs))
	}
	// No point in front k may dominate a point in front j<k, and every
	// front must be internally non-dominated.
	for k, f := range fronts {
		for _, i := range f {
			for _, j := range f {
				if i != j && Dominates(objs[i], objs[j]) {
					t.Fatalf("front %d not mutually non-dominated", k)
				}
			}
		}
	}
}

func TestCrowdingBoundariesInfinite(t *testing.T) {
	objs := [][]float64{{1, 4}, {2, 3}, {3, 2}, {4, 1}}
	front := []int{0, 1, 2, 3}
	d := Crowding(objs, front)
	if !math.IsInf(d[0], 1) || !math.IsInf(d[3], 1) {
		t.Errorf("boundary crowding = %v, want +Inf at ends", d)
	}
	if math.IsInf(d[1], 1) || d[1] <= 0 {
		t.Errorf("interior crowding = %v, want finite positive", d[1])
	}
}

func TestCrowdingUniformSpacingEqual(t *testing.T) {
	objs := [][]float64{{0, 4}, {1, 3}, {2, 2}, {3, 1}, {4, 0}}
	d := Crowding(objs, []int{0, 1, 2, 3, 4})
	if math.Abs(d[1]-d[2]) > 1e-12 || math.Abs(d[2]-d[3]) > 1e-12 {
		t.Errorf("uniform spacing should give equal interior crowding: %v", d)
	}
}

func TestCrowdingEmptyFront(t *testing.T) {
	if d := Crowding(nil, nil); len(d) != 0 {
		t.Errorf("empty front crowding = %v", d)
	}
}

func TestHypervolume2D(t *testing.T) {
	ref := []float64{4, 4}
	// Single point: rectangle area.
	if got := Hypervolume([][]float64{{2, 2}}, ref); got != 4 {
		t.Errorf("HV single = %v, want 4", got)
	}
	// Two staircase points: union area = 2x1 + 1x2 joint handling.
	pts := [][]float64{{1, 3}, {3, 1}}
	// Union: (4-1)*(4-3)=3 plus (4-3)*(3-1)=2 -> 5
	if got := Hypervolume(pts, ref); got != 5 {
		t.Errorf("HV staircase = %v, want 5", got)
	}
	// Dominated point adds nothing.
	if got := Hypervolume(append(pts, []float64{3, 3}), ref); got != 5 {
		t.Errorf("HV with dominated = %v, want 5", got)
	}
	// Point outside the reference box contributes nothing.
	if got := Hypervolume([][]float64{{5, 5}}, ref); got != 0 {
		t.Errorf("HV outside = %v, want 0", got)
	}
}

func TestHypervolume1D(t *testing.T) {
	if got := Hypervolume([][]float64{{2}, {3}}, []float64{10}); got != 8 {
		t.Errorf("HV 1D = %v, want 8", got)
	}
}

func TestHypervolume3DBox(t *testing.T) {
	ref := []float64{2, 2, 2}
	if got := Hypervolume([][]float64{{0, 0, 0}}, ref); math.Abs(got-8) > 1e-12 {
		t.Errorf("HV cube = %v, want 8", got)
	}
	// Two disjoint-ish boxes: exact union of {1,0,0} and {0,1,1}:
	// vol(A)= (2-1)*2*2 = 4; vol(B)= 2*1*1 = 2; intersection = 1*1*1 = 1
	got := Hypervolume([][]float64{{1, 0, 0}, {0, 1, 1}}, ref)
	if math.Abs(got-5) > 1e-12 {
		t.Errorf("HV union = %v, want 5", got)
	}
}

func TestHypervolume3DMatchesMonteCarlo(t *testing.T) {
	r := rng.New(7)
	pts := make([][]float64, 8)
	for i := range pts {
		pts[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	ref := []float64{1, 1, 1}
	exact := Hypervolume(pts, ref)
	const n = 200000
	hit := 0
	for i := 0; i < n; i++ {
		x := []float64{r.Float64(), r.Float64(), r.Float64()}
		for _, p := range pts {
			if p[0] <= x[0] && p[1] <= x[1] && p[2] <= x[2] {
				hit++
				break
			}
		}
	}
	mc := float64(hit) / n
	if math.Abs(exact-mc) > 0.01 {
		t.Errorf("HV exact %v vs Monte-Carlo %v", exact, mc)
	}
}

func TestContribution(t *testing.T) {
	ref := []float64{4, 4}
	pts := [][]float64{{1, 3}, {3, 1}}
	c := Contribution(pts, ref)
	// Each exclusive region is 5 - area(other alone) = 5-3 = 2... area
	// of {1,3} alone = 3, {3,1} alone = 3; contributions 2 each.
	if math.Abs(c[0]-2) > 1e-12 || math.Abs(c[1]-2) > 1e-12 {
		t.Errorf("contributions = %v, want [2 2]", c)
	}
	// A dominated point contributes zero.
	c = Contribution([][]float64{{1, 1}, {2, 2}}, ref)
	if c[1] != 0 {
		t.Errorf("dominated contribution = %v, want 0", c[1])
	}
	// Singleton: full volume.
	c = Contribution([][]float64{{2, 2}}, ref)
	if c[0] != 4 {
		t.Errorf("singleton contribution = %v, want 4", c[0])
	}
}

func TestQuickNonDominatedCorrect(t *testing.T) {
	r := rng.New(3)
	f := func(n uint8) bool {
		m := int(n%40) + 1
		objs := make([][]float64, m)
		for i := range objs {
			objs[i] = []float64{r.Float64(), r.Float64()}
		}
		front := NonDominated(objs)
		inFront := map[int]bool{}
		for _, i := range front {
			inFront[i] = true
		}
		for _, i := range front {
			for _, j := range front {
				if i != j && Dominates(objs[i], objs[j]) {
					return false
				}
			}
		}
		for i := range objs {
			if inFront[i] {
				continue
			}
			dominated := false
			for _, j := range front {
				if Dominates(objs[j], objs[i]) {
					dominated = true
				}
			}
			if !dominated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: hyper-volume is monotone — adding a point never decreases
// it — and bounded by the reference box volume.
func TestQuickHypervolumeMonotone(t *testing.T) {
	r := rng.New(4)
	f := func(n uint8) bool {
		m := int(n%10) + 1
		ref := []float64{1, 1, 1}
		var pts [][]float64
		prev := 0.0
		for i := 0; i < m; i++ {
			pts = append(pts, []float64{r.Float64(), r.Float64(), r.Float64()})
			cur := Hypervolume(pts, ref)
			if cur+1e-12 < prev || cur > 1+1e-12 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: HV computed in 2-D equals HV computed by embedding the
// same points in 3-D with a dummy dimension.
func TestQuickHypervolumeDimensionConsistency(t *testing.T) {
	r := rng.New(5)
	f := func(n uint8) bool {
		m := int(n%8) + 1
		pts2 := make([][]float64, m)
		pts3 := make([][]float64, m)
		for i := range pts2 {
			x, y := r.Float64(), r.Float64()
			pts2[i] = []float64{x, y}
			pts3[i] = []float64{x, y, 0}
		}
		a := Hypervolume(pts2, []float64{1, 1})
		b := Hypervolume(pts3, []float64{1, 1, 1})
		return math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
