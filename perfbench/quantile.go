package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minTail = 10

// nearestRank returns the p-quantile (0 < p ≤ 1) of sorted by the
// nearest-rank rule: the smallest sample with at least p·n samples at or
// below it. It returns NaN for an empty slice.
func nearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	return sorted[rank(n, p)-1]
}

// rank is the 1-based nearest-rank index of the p-quantile of n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// tailSupported reports whether n samples leave at least minTail
// samples beyond the nearest-rank p-quantile.
func tailSupported(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minTail
}

// highestSupported returns the highest of the given percentiles (in
// ascending order) that n samples support, or 0 if none does.
func highestSupported(n int, ps []float64) float64 {
	best := 0.0
	for _, p := range ps {
		if tailSupported(n, p) {
			best = p
		}
	}
	return best
}

// sortedMs converts durations to sorted milliseconds.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// median returns the middle value (mean of the two middle values for an
// even count) of xs, which it sorts in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
