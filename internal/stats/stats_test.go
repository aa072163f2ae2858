package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almost(Mean(xs), 5) {
		t.Fatalf("mean = %v, want 5", Mean(xs))
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("empty input must give NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("min/max = %v/%v", Min(xs), Max(xs))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almost(got, c.want) {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile must be NaN")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100}
	b := Summarize(xs)
	if b.N != 5 || b.Min != 1 || b.Max != 100 || !almost(b.Median, 3) {
		t.Fatalf("summary wrong: %v", b)
	}
	if b.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestQuantileOrderingProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(n%40) + 2
		xs := make([]float64, m)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		qs := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1}
		vals := make([]float64, len(qs))
		for i, q := range qs {
			vals[i] = Quantile(xs, q)
		}
		if !sort.Float64sAreSorted(vals) {
			return false
		}
		return vals[0] == Min(xs) && vals[len(vals)-1] == Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRelChange(t *testing.T) {
	if !almost(RelChange(10, 9), -0.1) {
		t.Fatalf("RelChange(10,9) = %v", RelChange(10, 9))
	}
	if !math.IsNaN(RelChange(0, 1)) {
		t.Fatal("RelChange from 0 must be NaN")
	}
}
