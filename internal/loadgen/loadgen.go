// Package loadgen holds the seeded Zipf target picker that remains of
// the retired open-loop load harness. Serving load is measured by
// perfbench (see perfbench/README.md) and fleet behaviour is checked by
// the chaos harness (internal/chaos, cmd/vlpchaos); this package has no
// non-test caller and is scheduled for deletion (ROADMAP item 4).
//
// Determinism contract: this package is in vlplint's nodeterm scope —
// it never reads the wall clock or the global math/rand state, so a
// fixed seed always yields the identical pick sequence.
package loadgen

import (
	"fmt"
	"math/rand"
)

// Zipf draws target indices in [0, n) with Zipf(s, v) popularity: rank
// 0 is the most popular target. A fixed seed yields a fixed pick
// sequence.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf builds a seeded Zipf picker over n targets. The exponent s
// must exceed 1 and v must be at least 1 (math/rand's parameterisation);
// n must be positive.
func NewZipf(seed int64, s, v float64, n int) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("loadgen: zipf needs a positive target count, got %d", n)
	}
	if !(s > 1) || !(v >= 1) {
		return nil, fmt.Errorf("loadgen: zipf requires s > 1 and v >= 1, got s=%v v=%v", s, v)
	}
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, v, uint64(n-1))
	if z == nil {
		return nil, fmt.Errorf("loadgen: invalid zipf parameters s=%v v=%v n=%d", s, v, n)
	}
	return &Zipf{z: z}, nil
}

// Pick draws the next target index.
func (z *Zipf) Pick() int { return int(z.z.Uint64()) }
