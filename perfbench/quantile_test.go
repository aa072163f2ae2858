package main

import (
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := nearestRank(xs, c.p); got != c.want {
			t.Errorf("nearestRank(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := nearestRank([]float64{7}, 0.5); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
}

func TestTailSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 0.9, true},   // rank 90, ten beyond
		{99, 0.9, false},   // rank 90, nine beyond
		{40, 0.75, true},   // rank 30, ten beyond
		{40, 0.9, false},   // rank 36, four beyond
		{1000, 0.99, true}, // rank 990, ten beyond
		{0, 0.5, false},
	} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	ladder := []float64{0.5, 0.75, 0.9, 0.95, 0.99}
	if got := highestSupported(40, ladder); got != 0.75 {
		t.Errorf("highestSupported(40) = %v, want 0.75", got)
	}
	if got := highestSupported(250, ladder); got != 0.95 {
		t.Errorf("highestSupported(250) = %v, want 0.95", got)
	}
	if got := highestSupported(5, ladder); got != 0 {
		t.Errorf("highestSupported(5) = %v, want 0", got)
	}
}

func TestMedianAndSortedMs(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	ms := sortedMs([]time.Duration{3 * time.Millisecond, 1500 * time.Microsecond})
	if ms[0] != 1.5 || ms[1] != 3 {
		t.Errorf("sortedMs = %v", ms)
	}
}
