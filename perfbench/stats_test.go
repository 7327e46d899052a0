package main

import (
	"math"
	"testing"
)

func TestNearestRankPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n, permille int
		want        float64
	}{
		{100, 500, 50}, {100, 900, 90}, {100, 990, 99}, {100, 1000, 100},
		{10, 500, 5}, {10, 900, 9}, {10, 990, 10},
		{1, 500, 1}, {1, 990, 1},
		{7, 500, 4}, // ceil(3.5) = 4
		{1000, 990, 990},
	}
	for _, c := range cases {
		if got := percentile(seq(c.n), c.permille); got != c.want {
			t.Errorf("percentile(1..%d, %d‰) = %v, want %v", c.n, c.permille, got, c.want)
		}
	}
	if got := percentile(nil, 500); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
}

func TestTenBeyondRule(t *testing.T) {
	cases := []struct {
		n, permille int
		beyond      int
		ok          bool
	}{
		{1000, 990, 10, true},
		{999, 990, 9, false}, // rank ceil(989.01) = 990
		{1100, 990, 11, true},
		{100, 900, 10, true},
		{99, 900, 9, false},
		{300, 900, 30, true},
		{300, 990, 3, false},
		{20, 500, 10, true},
	}
	for _, c := range cases {
		if got := beyond(c.n, c.permille); got != c.beyond {
			t.Errorf("beyond(%d, %d‰) = %d, want %d", c.n, c.permille, got, c.beyond)
		}
		if got := supported(c.n, c.permille); got != c.ok {
			t.Errorf("supported(%d, %d‰) = %v, want %v", c.n, c.permille, got, c.ok)
		}
	}
	for _, c := range []struct{ permille, n int }{{990, 1000}, {900, 100}, {500, 20}} {
		if got := samplesFor(c.permille); got != c.n {
			t.Errorf("samplesFor(%d‰) = %d, want %d", c.permille, got, c.n)
		}
	}
}

func TestSummarizeAndMedian(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.n != 5 || s.p50 != 3 || s.p90 != 5 || s.p99 != 5 {
		t.Errorf("summarize = %+v", s)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestCovered(t *testing.T) {
	ivs := []interval{{10, 40}, {30, 60}, {80, 120}, {200, 300}}
	// [10,60) and [80,100) inside [0,100): 50 + 20.
	if got := covered(0, 100, ivs); got != 70 {
		t.Errorf("covered = %d, want 70", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Errorf("covered with no children = %d, want 0", got)
	}
}

func TestAggregateSelfTimes(t *testing.T) {
	spans := []span{
		{name: spanQoS, parent: -1, start: 0, end: 300},
		{name: spanTransport, parent: 0, start: 20, end: 280},
		{name: spanEdge, parent: 1, start: 50, end: 250},
		{name: spanRegister, parent: -1, start: 300, end: 400},
		{name: spanTransport, parent: 3, start: 310, end: 390},
	}
	L := aggregate(spans)
	check := func(root, name spanName, count int, dur, self int64) {
		t.Helper()
		got := L[root][name]
		if got.count != count || got.dur != dur || got.self != self {
			t.Errorf("%s/%s = %+v, want count %d dur %d self %d", root, name, got, count, dur, self)
		}
	}
	check(spanQoS, spanQoS, 1, 300, 40)
	check(spanQoS, spanTransport, 1, 260, 60)
	check(spanQoS, spanEdge, 1, 200, 200)
	check(spanRegister, spanRegister, 1, 100, 20)
	check(spanRegister, spanTransport, 1, 80, 80)

	// Overlapping children are covered once.
	ov := aggregate([]span{
		{name: spanDesign, parent: -1, start: 0, end: 100},
		{name: spanBase, parent: 0, start: 10, end: 40},
		{name: spanReD, parent: 0, start: 30, end: 60},
	})
	if got := ov[spanDesign][spanDesign].self; got != 50 {
		t.Errorf("root self with overlapping children = %d, want 50", got)
	}
}

func TestResidualArithmetic(t *testing.T) {
	if got := residual(100, 30, 50, 15); got != 5 {
		t.Errorf("residual = %v, want 5", got)
	}
	if got := residual(100); got != 100 {
		t.Errorf("residual with no layers = %v, want 100", got)
	}
	// Self times telescope: for a call whose wall time is fully covered
	// by its root span, client + transport + edge self times plus the
	// decide time the edge encloses add back up to the call.
	L := aggregate([]span{
		{name: spanQoS, parent: -1, start: 0, end: 300},
		{name: spanTransport, parent: 0, start: 20, end: 280},
		{name: spanEdge, parent: 1, start: 50, end: 250},
	})
	decide := 150.0
	edgeSelf := float64(L[spanQoS][spanEdge].dur) - decide
	got := residual(300, float64(L[spanQoS][spanQoS].self), float64(L[spanQoS][spanTransport].self), edgeSelf, decide)
	if math.Abs(got) > 1e-9 {
		t.Errorf("telescoped residual = %v, want 0", got)
	}
}
