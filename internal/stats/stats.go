// Package stats holds the small statistics helpers the experiment
// harness uses to summarise per-vehicle and per-run measurements: means,
// quantiles and box-plot five-number summaries.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean; it returns NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the smallest value; NaN for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value; NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using linear interpolation
// between order statistics; NaN for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// BoxPlot is a five-number summary plus the mean, matching what the
// paper's box-plot figures display.
type BoxPlot struct {
	Min, Q1, Median, Q3, Max, Mean float64
	N                              int
}

// Summarize computes the box-plot summary of a sample.
func Summarize(xs []float64) BoxPlot {
	return BoxPlot{
		Min:    Min(xs),
		Q1:     Quantile(xs, 0.25),
		Median: Quantile(xs, 0.5),
		Q3:     Quantile(xs, 0.75),
		Max:    Max(xs),
		Mean:   Mean(xs),
		N:      len(xs),
	}
}

// String renders the summary on one line.
func (b BoxPlot) String() string {
	return fmt.Sprintf("n=%d min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g mean=%.4g",
		b.N, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean)
}

// RelChange returns (b − a)/a as a signed fraction — the quantity behind
// the paper's "X% lower/higher" statements. It returns NaN when a == 0.
func RelChange(a, b float64) float64 {
	if a == 0 {
		return math.NaN()
	}
	return (b - a) / a
}
