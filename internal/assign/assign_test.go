package assign

import (
	"math"
	"math/rand"
	"testing"
)

func bruteForceAssign(cost [][]float64) float64 {
	n, m := len(cost), len(cost[0])
	cols := make([]int, m)
	for j := range cols {
		cols[j] = j
	}
	best := math.Inf(1)
	var rec func(i int, used []bool, acc float64)
	rec = func(i int, used []bool, acc float64) {
		if acc >= best {
			return
		}
		if i == n {
			best = acc
			return
		}
		for j := 0; j < m; j++ {
			if !used[j] {
				used[j] = true
				rec(i+1, used, acc+cost[i][j])
				used[j] = false
			}
		}
	}
	rec(0, make([]bool, m), 0)
	return best
}

func TestHungarianKnownCase(t *testing.T) {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	match, total, err := Hungarian(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 5 { // 1 + 2 + 2
		t.Fatalf("total = %v, want 5 (match %v)", total, match)
	}
	seen := map[int]bool{}
	for _, j := range match {
		if seen[j] {
			t.Fatalf("duplicate column in match %v", match)
		}
		seen[j] = true
	}
}

func TestHungarianRectangular(t *testing.T) {
	cost := [][]float64{
		{10, 1, 10, 10},
		{10, 10, 2, 10},
	}
	match, total, err := Hungarian(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 || match[0] != 1 || match[1] != 2 {
		t.Fatalf("match %v total %v", match, total)
	}
}

func TestHungarianMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(6)
		m := n + rng.Intn(3)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, m)
			for j := range cost[i] {
				cost[i][j] = math.Round(rng.Float64()*1000) / 100
			}
		}
		_, total, err := Hungarian(cost)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceAssign(cost)
		if math.Abs(total-want) > 1e-9 {
			t.Fatalf("trial %d: Hungarian %v, brute force %v (cost %v)", trial, total, want, cost)
		}
	}
}

func TestHungarianRejectsBadInput(t *testing.T) {
	if _, _, err := Hungarian([][]float64{{1}, {2}}); err == nil {
		t.Fatal("accepted more rows than columns")
	}
	if _, _, err := Hungarian([][]float64{{1, math.NaN()}}); err == nil {
		t.Fatal("accepted NaN cost")
	}
	if _, _, err := Hungarian([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("accepted ragged matrix")
	}
	if match, total, err := Hungarian(nil); err != nil || match != nil || total != 0 {
		t.Fatal("empty input must be a no-op")
	}
}

func TestHungarianNegativeCosts(t *testing.T) {
	cost := [][]float64{
		{-5, 2},
		{3, -4},
	}
	_, total, err := Hungarian(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != -9 {
		t.Fatalf("total = %v, want -9", total)
	}
}
