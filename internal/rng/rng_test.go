package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	// Children with distinct labels from identically seeded parents
	// must be reproducible and mutually distinct.
	p1 := New(7)
	p2 := New(7)
	c1 := p1.Split(1)
	c2 := p2.Split(1)
	for i := 0; i < 100; i++ {
		if c1.Float64() != c2.Float64() {
			t.Fatalf("split children not reproducible at draw %d", i)
		}
	}
	d1 := New(7).Split(1)
	d2 := New(7).Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if d1.Float64() == d2.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("children with different labels matched %d/100 draws", same)
	}
}

func TestRangeBounds(t *testing.T) {
	s := New(3)
	for i := 0; i < 1000; i++ {
		v := s.Range(2.5, 7.5)
		if v < 2.5 || v >= 7.5 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
}

func TestIntRangeBounds(t *testing.T) {
	s := New(4)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.IntRange(3, 6)
		if v < 3 || v > 6 {
			t.Fatalf("IntRange out of bounds: %d", v)
		}
		seen[v] = true
	}
	for want := 3; want <= 6; want++ {
		if !seen[want] {
			t.Errorf("IntRange never produced %d in 1000 draws", want)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(5)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Normal mean = %v, want ~10", mean)
	}
	if math.Abs(sd-2) > 0.05 {
		t.Errorf("Normal stddev = %v, want ~2", sd)
	}
}

func TestTruncNormalBounds(t *testing.T) {
	s := New(6)
	for i := 0; i < 5000; i++ {
		v := s.TruncNormal(0, 10, -1, 1)
		if v < -1 || v > 1 {
			t.Fatalf("TruncNormal out of bounds: %v", v)
		}
	}
}

func TestTruncNormalDegenerateInterval(t *testing.T) {
	// An interval far into the tail must still terminate and clamp.
	s := New(61)
	v := s.TruncNormal(0, 0.001, 5, 6)
	if v < 5 || v > 6 {
		t.Fatalf("degenerate TruncNormal out of bounds: %v", v)
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(8)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exponential(100)
	}
	mean := sum / n
	if math.Abs(mean-100) > 1.5 {
		t.Errorf("Exponential mean = %v, want ~100", mean)
	}
}

func TestExponentialPositive(t *testing.T) {
	s := New(9)
	for i := 0; i < 5000; i++ {
		if v := s.Exponential(3); v < 0 {
			t.Fatalf("Exponential produced negative value %v", v)
		}
	}
}

func TestWeibullMean(t *testing.T) {
	// For beta=1 the Weibull reduces to Exponential(eta).
	s := New(10)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Weibull(50, 1)
	}
	mean := sum / n
	if math.Abs(mean-50) > 1 {
		t.Errorf("Weibull(50,1) mean = %v, want ~50", mean)
	}
}

func TestWeibullShape(t *testing.T) {
	// For beta=2, mean = eta * Gamma(1.5) = eta * sqrt(pi)/2.
	s := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Weibull(10, 2)
	}
	want := 10 * math.Sqrt(math.Pi) / 2
	if got := sum / n; math.Abs(got-want) > 0.1 {
		t.Errorf("Weibull(10,2) mean = %v, want ~%v", got, want)
	}
}

func TestBivariateNormalCorrelation(t *testing.T) {
	s := New(12)
	const n = 200000
	var sx, sy, sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		x, y := s.BivariateNormal(0, 0, 1, 1, 0.8)
		sx += x
		sy += y
		sxy += x * y
		sxx += x * x
		syy += y * y
	}
	mx, my := sx/n, sy/n
	cov := sxy/n - mx*my
	vx := sxx/n - mx*mx
	vy := syy/n - my*my
	rho := cov / math.Sqrt(vx*vy)
	if math.Abs(rho-0.8) > 0.02 {
		t.Errorf("sample correlation = %v, want ~0.8", rho)
	}
}

func TestBivariateNormalMeans(t *testing.T) {
	s := New(13)
	const n = 100000
	var sx, sy float64
	for i := 0; i < n; i++ {
		x, y := s.BivariateNormal(5, -3, 2, 0.5, -0.4)
		sx += x
		sy += y
	}
	if math.Abs(sx/n-5) > 0.05 {
		t.Errorf("x mean = %v, want ~5", sx/n)
	}
	if math.Abs(sy/n+3) > 0.02 {
		t.Errorf("y mean = %v, want ~-3", sy/n)
	}
}

func TestPanicsOnBadArgs(t *testing.T) {
	s := New(17)
	assertPanics(t, "Range", func() { s.Range(2, 1) })
	assertPanics(t, "IntRange", func() { s.IntRange(2, 1) })
	assertPanics(t, "Exponential", func() { s.Exponential(0) })
	assertPanics(t, "Weibull eta", func() { s.Weibull(0, 1) })
	assertPanics(t, "Weibull beta", func() { s.Weibull(1, 0) })
	assertPanics(t, "TruncNormal", func() { s.TruncNormal(0, 1, 1, 0) })
	assertPanics(t, "BivariateNormal", func() { s.BivariateNormal(0, 0, 1, 1, 1) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestPermIsPermutation(t *testing.T) {
	s := New(19)
	p := s.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("bad permutation %v", p)
		}
		seen[v] = true
	}
}

// Property: Range output always lies within its bounds for arbitrary
// valid bounds.
func TestQuickRangeWithinBounds(t *testing.T) {
	s := New(20)
	f := func(a, b float64) bool {
		lo, hi := a, b
		if math.IsNaN(lo) || math.IsNaN(hi) || math.Abs(lo) > 1e150 || math.Abs(hi) > 1e150 {
			return true // avoid overflow of hi-lo, which is out of scope
		}
		if hi < lo {
			lo, hi = hi, lo
		}
		v := s.Range(lo, hi)
		return v >= lo && (v < hi || lo == hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Weibull samples are always positive.
func TestQuickWeibullPositive(t *testing.T) {
	s := New(21)
	f := func(e, b uint8) bool {
		eta := 0.1 + float64(e)
		beta := 0.1 + float64(b%8)
		return s.Weibull(eta, beta) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(23)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	if got := float64(hits) / n; got < 0.29 || got > 0.31 {
		t.Errorf("Bool(0.3) frequency = %v", got)
	}
	if s.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	hits = 0
	for i := 0; i < 1000; i++ {
		if s.Bool(1) {
			hits++
		}
	}
	if hits != 1000 {
		t.Errorf("Bool(1) true %d/1000 times", hits)
	}
}

func TestIntnAndRangeSingletons(t *testing.T) {
	s := New(24)
	for i := 0; i < 100; i++ {
		if got := s.IntRange(5, 5); got != 5 {
			t.Fatalf("IntRange(5,5) = %d", got)
		}
		if got := s.Intn(1); got != 0 {
			t.Fatalf("Intn(1) = %d", got)
		}
	}
}
