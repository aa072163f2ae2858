package loadgen

import "testing"

// TestZipfDeterministic pins the exact pick sequence for fixed seeds:
// identically seeded pickers must agree request for request.
func TestZipfDeterministic(t *testing.T) {
	cases := []struct {
		name string
		seed int64
		s, v float64
		n    int
	}{
		{"skewed", 1, 1.2, 1, 8},
		{"flatter", 7, 1.05, 2, 16},
		{"two targets", 42, 2.5, 1, 2},
		{"single target", 3, 1.5, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewZipf(tc.seed, tc.s, tc.v, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewZipf(tc.seed, tc.s, tc.v, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]int, tc.n)
			for i := 0; i < 4096; i++ {
				x, y := a.Pick(), b.Pick()
				if x != y {
					t.Fatalf("pick %d diverged between identically seeded generators: %d vs %d", i, x, y)
				}
				if x < 0 || x >= tc.n {
					t.Fatalf("pick %d = %d outside [0, %d)", i, x, tc.n)
				}
				counts[x]++
			}
			// Rank 0 must be the (weakly) most popular target.
			for i, c := range counts {
				if c > counts[0] {
					t.Fatalf("rank %d drew %d > rank 0's %d; Zipf skew inverted", i, c, counts[0])
				}
			}
		})
	}
}

func TestZipfRejectsBadParams(t *testing.T) {
	cases := []struct {
		name string
		s, v float64
		n    int
	}{
		{"s too small", 1.0, 1, 4},
		{"v too small", 1.5, 0.5, 4},
		{"zero targets", 1.5, 1, 0},
		{"negative targets", 1.5, 1, -3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewZipf(1, tc.s, tc.v, tc.n); err == nil {
				t.Fatalf("NewZipf(s=%v, v=%v, n=%d) accepted invalid parameters", tc.s, tc.v, tc.n)
			}
		})
	}
}
