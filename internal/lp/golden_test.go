package lp_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/roadnet"
	"repro/internal/serial"
)

// goldenInstance is one pinned solve: a grid network, its δ, and how
// the solve is set up.
type goldenInstance struct {
	name       string
	rows, cols int
	delta      float64
	// hetero gives the first half of the intervals ε 3, the rest ε 8.
	hetero bool
	// donor solves under a non-uniform prior, resumed from the seeded
	// uniform-prior run's State (the server's donor-warm path).
	donor bool
	// stop, when non-nil, replaces the serving stop rule with its Xi and
	// RelGap.
	stop *core.CGOptions
}

// goldenInstances mirror the K12/K24/K44 solver-benchmark tiers
// (bench_test.go cgBenchSizes) plus four K24 variants: a
// heterogeneous-ε instance with a strict and a loose ε region, a
// resumed solve, which builds its master from a previous run's column
// pool instead of the seed columns, and two stop rules the server does
// not use, an exact solve (ξ 0) and a gap-only one (ξ −1e-9, 2%
// relative gap).
var goldenInstances = []goldenInstance{
	{name: "K12", rows: 2, cols: 2, delta: 0.3},
	{name: "K24", rows: 2, cols: 3, delta: 0.2},
	{name: "K44", rows: 3, cols: 3, delta: 0.15},
	{name: "K24-hetero", rows: 2, cols: 3, delta: 0.2, hetero: true},
	{name: "K24-donor", rows: 2, cols: 3, delta: 0.2, donor: true},
	{name: "K24-exact", rows: 2, cols: 3, delta: 0.2, stop: &core.CGOptions{Xi: 0}},
	{name: "K24-gap", rows: 2, cols: 3, delta: 0.2, stop: &core.CGOptions{Xi: -1e-9, RelGap: 0.02}},
}

// goldenDigests pins the SHA-256 of each instance's served wire bytes.
// The AVX2 and Go SYRK kernels compute the same bits, so one table holds
// on every amd64 host whichever kernel it runs, and the digest is
// independent of the pricing worker count and GOMAXPROCS.
var goldenDigests = map[string]string{
	"K12":        "e2f85ecd77f4fb277e9196fa1208c0d6fa0bb9ae881d5ab4666a64fbd3317498",
	"K24":        "75a4a2e83b27070522435820e09456d38f006a07dbd06a25b238fa868e5dac40",
	"K44":        "c933266623fb333fb0392e25ecaaf3fbdc7c06e7a0e47677bc2eea5d8de559f7",
	"K24-hetero": "06948dbeafdc450636f651911b6a5d4dad6df461f26b87006f590bc45ab07839",
	"K24-donor":  "13cfe39a1d87fc840560f6083ea8813914a8883e3314165f34e04c7554ccc6dc",
	"K24-exact":  "279c5428e1c02af5c2904924ffa6b472113808e21be3760781be71447556e048",
	"K24-gap":    "1e6d82519fdbaeb3e35658bd772bb60e55e7f424e6ebfefd1e03d77ace3aeb59",
}

// servedBytes solves one instance the way vlpserved does (column
// generation at the service's stop rule unless the instance names its
// own, then the Geo-I
// repair gate) and renders the mechanism's JSON wire form
// (serial.WriteJSON of serial.FromMechanism), the bytes vlpsolve and
// vlp.Mechanism.Save write. A vlpserved store entry holds the binary
// serial.EncodeStoredEntry snapshot instead.
func servedBytes(t *testing.T, in goldenInstance, workers int) []byte {
	t.Helper()
	const eps = 5.0
	rng := rand.New(rand.NewSource(77))
	g := roadnet.Grid(rng, roadnet.GridConfig{
		Rows: in.rows, Cols: in.cols, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.15,
	})
	part, err := discretize.New(g, in.delta)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Epsilon: eps}
	if in.hetero {
		k := part.K()
		cfg.EpsilonAt = make([]float64, k)
		for i := range cfg.EpsilonAt {
			cfg.EpsilonAt[i] = 3
			if i >= k/2 {
				cfg.EpsilonAt[i] = 8
			}
		}
	}
	pr, err := core.NewProblem(part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.CGOptions{Workers: workers}.ServingStop()
	if in.stop != nil {
		opts.Xi, opts.RelGap = in.stop.Xi, in.stop.RelGap
	}
	res, err := core.SolveCG(pr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if in.donor {
		// A prior rising from 1 to 3 across the intervals, normalised.
		k := part.K()
		cfg.PriorP = make([]float64, k)
		sum := 0.0
		for i := range cfg.PriorP {
			cfg.PriorP[i] = 1 + 2*float64(i)/float64(k-1)
			sum += cfg.PriorP[i]
		}
		for i := range cfg.PriorP {
			cfg.PriorP[i] /= sum
		}
		if pr, err = core.NewProblem(part, cfg); err != nil {
			t.Fatal(err)
		}
		opts.Resume = res.State
		if res, err = core.SolveCG(pr, opts); err != nil {
			t.Fatal(err)
		}
	}
	served, etdd, err := pr.EnforceGeoI(res.Mechanism, core.GeoITol)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := serial.WriteJSON(&buf, serial.FromMechanism(served, in.delta, eps, 0, etdd, res.LowerBound)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenMechanismDigests is the "digests change only on purpose"
// gate: a refactor of the LP or column-generation layers must leave the
// served bytes of every pinned instance unchanged. The subtest is named
// after the AVX2 kernel whose bits the table pins; the Go kernel
// computes the same bits, so it runs on every host, with whichever
// kernel the host has installed.
func TestGoldenMechanismDigests(t *testing.T) {
	t.Run("avx2", func(t *testing.T) {
		for _, in := range goldenInstances {
			for _, workers := range []int{1, 4} {
				sum := sha256.Sum256(servedBytes(t, in, workers))
				got := hex.EncodeToString(sum[:])
				if want := goldenDigests[in.name]; got != want {
					t.Errorf("%s with %d pricing workers: served digest %s, golden %s", in.name, workers, got, want)
				}
			}
		}
	})
}
