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

// goldenInstances mirror the K12/K24/K44 solver-benchmark tiers
// (bench_test.go cgBenchSizes) plus one heterogeneous-ε instance: the
// K24 network with a strict and a loose ε region.
var goldenInstances = []struct {
	name       string
	rows, cols int
	delta      float64
	hetero     bool
}{
	{"K12", 2, 2, 0.3, false},
	{"K24", 2, 3, 0.2, false},
	{"K44", 3, 3, 0.15, false},
	{"K24-hetero", 2, 3, 0.2, true},
}

// goldenDigests pins the SHA-256 of each instance's served wire bytes.
// The AVX2 and Go SYRK kernels compute the same bits, so one table holds
// on every amd64 host whichever kernel it runs, and the digest is
// independent of the pricing worker count and GOMAXPROCS.
var goldenDigests = map[string]string{
	"K12":        "e8e6bb5fea96bcff2d5cc787820c85d66a672167ae9c0814f7a628438384a729",
	"K24":        "ecadafb1904cfde0abee7b8740f861d20cf9116dbc711fa18ea687e736444dc0",
	"K44":        "4aefdfd0729f1f2ef216fdebf435d5af0ca20fc18b5dd815fad85190e430da44",
	"K24-hetero": "514b6d2708f0a002b4ad98443e8c6f3e038872af126b068449922515527313da",
}

// servedBytes solves one instance the way vlpserved does (column
// generation at the service's default stop criteria, then the Geo-I
// repair gate) and renders the mechanism's JSON wire form
// (serial.WriteJSON of serial.FromMechanism), the bytes vlpsolve and
// vlp.Mechanism.Save write. A vlpserved store entry holds the binary
// serial.EncodeStoredEntry snapshot instead.
func servedBytes(t *testing.T, rows, cols int, delta float64, hetero bool, workers int) []byte {
	t.Helper()
	const eps = 5.0
	rng := rand.New(rand.NewSource(77))
	g := roadnet.Grid(rng, roadnet.GridConfig{
		Rows: rows, Cols: cols, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.15,
	})
	part, err := discretize.New(g, delta)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Epsilon: eps}
	if hetero {
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
	res, err := core.SolveCG(pr, core.CGOptions{Xi: -0.05, RelGap: 0.02, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	served, etdd, err := pr.EnforceGeoI(res.Mechanism, core.GeoITol)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := serial.WriteJSON(&buf, serial.FromMechanism(served, delta, eps, 0, etdd, res.LowerBound)); err != nil {
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
				sum := sha256.Sum256(servedBytes(t, in.rows, in.cols, in.delta, in.hetero, workers))
				got := hex.EncodeToString(sum[:])
				if want := goldenDigests[in.name]; got != want {
					t.Errorf("%s with %d pricing workers: served digest %s, golden %s", in.name, workers, got, want)
				}
			}
		}
	})
}
