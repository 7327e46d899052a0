package main

import "sort"

// minBeyond is how many samples must lie above a reported percentile:
// a tail percentile with fewer samples beyond it is set by a handful of
// outliers and does not repeat from run to run.
const minBeyond = 10

// rank returns the 1-based nearest rank of the permille-th percentile
// in a sample of n: the smallest k with at least permille/1000 of the
// sample at or below the k-th smallest value. Integer arithmetic keeps
// it exact (0.99*100 is not 99 in floating point).
func rank(n, permille int) int {
	k := (permille*n + 999) / 1000
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// beyond returns how many of n samples lie strictly above the
// permille-th percentile's rank.
func beyond(n, permille int) int { return n - rank(n, permille) }

// supported reports whether the permille-th percentile of n samples
// has at least minBeyond samples beyond it.
func supported(n, permille int) bool { return beyond(n, permille) >= minBeyond }

// samplesFor returns the smallest sample count at which the
// permille-th percentile has minBeyond samples beyond it.
func samplesFor(permille int) int {
	n := 1
	for !supported(n, permille) {
		n++
	}
	return n
}

// percentile returns the nearest-rank permille-th percentile of the
// ascending-sorted sample.
func percentile(sorted []float64, permille int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), permille)-1]
}

// latencySummary is the timing part of a run's end-to-end report.
type latencySummary struct {
	n             int
	p50, p90, p99 float64
}

// summarize sorts the sample in place and summarises it.
func summarize(sample []float64) latencySummary {
	sort.Float64s(sample)
	s := latencySummary{n: len(sample)}
	s.p50 = percentile(sample, 500)
	s.p90 = percentile(sample, 900)
	s.p99 = percentile(sample, 990)
	return s
}

// median returns the median of xs (the mean of the middle pair for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// residual is the part of the traced end-to-end mean that no named
// layer accounts for: e2e minus the sum of the layers' self times.
func residual(e2e float64, selfTimes ...float64) float64 {
	sum := 0.0
	for _, v := range selfTimes {
		sum += v
	}
	return e2e - sum
}

// interval is a half-open span of time in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping time once.
func covered(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var curS, curE int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curS, curE, open = iv.start, iv.end, true
		case iv.start <= curE:
			curE = max(curE, iv.end)
		default:
			total += curE - curS
			curS, curE = iv.start, iv.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}
