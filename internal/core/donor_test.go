package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/discretize"
	"repro/internal/roadnet"
	"repro/internal/trace"
)

// donorOpts is the serving layer's default stop rule.
var donorOpts = CGOptions{Xi: -0.05, RelGap: 0.02}

// donorPart is the K=48 tier of the solve-cold benchmark: a 3×3 grid
// at δ 0.15.
func donorPart(t *testing.T) (*roadnet.Graph, *discretize.Partition) {
	t.Helper()
	g := roadnet.Grid(rand.New(rand.NewSource(1)), roadnet.GridConfig{
		Rows: 3, Cols: 3, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.15,
	})
	part, err := discretize.New(g, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if part.K() != 48 {
		t.Fatalf("tier has K=%d, want 48", part.K())
	}
	return g, part
}

// tracePrior is the interval prior of a simulated fleet drawn with seed.
func tracePrior(t *testing.T, g *roadnet.Graph, part *discretize.Partition, seed int64) []float64 {
	t.Helper()
	sim := trace.DefaultSim()
	sim.Vehicles, sim.Duration = 60, 1800
	traces, err := trace.Simulate(rand.New(rand.NewSource(seed)), g, sim)
	if err != nil {
		t.Fatal(err)
	}
	return trace.PriorFromTraces(part, traces, 1)
}

// jitteredPrior scales each entry of base by a factor uniform in
// [1−frac, 1+frac] and renormalises.
func jitteredPrior(rng *rand.Rand, base []float64, frac float64) []float64 {
	p := make([]float64, len(base))
	sum := 0.0
	for i, b := range base {
		p[i] = b * (1 + frac*(2*rng.Float64()-1))
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// stateFingerprint renders a state's columns and bases, unexported
// fields included, so any write to a shared state shows as a change.
func stateFingerprint(st *CGState) string {
	s := fmt.Sprint(st.k, st.columns)
	for _, b := range st.bases {
		if b != nil {
			s += fmt.Sprint(*b)
		}
	}
	return s
}

// TestSolveCGDonorResume resumes K=48 solves from a donor solved on
// another prior over the same geometry: once for a ±0.1% jitter of the
// donor's prior and once for the prior of another simulated fleet. The
// resumed run must serve a Geo-I mechanism no worse than the cold run
// by more than RelGap and no better than the certified bound, and
// concurrent resumes must leave the shared donor state untouched.
func TestSolveCGDonorResume(t *testing.T) {
	g, part := donorPart(t)
	base := tracePrior(t, g, part, 7)
	problem := func(prior []float64) *Problem {
		pr, err := NewProblem(part, Config{Epsilon: 6, PriorP: prior, PriorQ: prior})
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	donorPr := problem(base)
	donor, err := SolveCG(donorPr, donorOpts)
	if err != nil {
		t.Fatal(err)
	}
	k := part.K()
	for l, b := range donor.State.bases {
		if b.Len() != k {
			t.Fatalf("donor basis %d covers %d rows, want %d", l, b.Len(), k)
		}
	}

	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name  string
		prior []float64
	}{
		{"jitter", jitteredPrior(rng, base, 0.001)},
		{"trace-seed", tracePrior(t, g, part, 8)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pr := problem(tc.prior)
			cold, err := SolveCG(pr, donorOpts)
			if err != nil {
				t.Fatal(err)
			}
			opts := donorOpts
			opts.Resume = donor.State
			warm, err := SolveCG(pr, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("cold: %d rounds, %d columns, ETDD %.9f; donor: %d rounds, %d columns, ETDD %.9f",
				len(cold.Iterations), cold.State.Columns(), cold.ETDD,
				len(warm.Iterations), warm.State.Columns(), warm.ETDD)
			// Re-costed columns: the master prices the pool at this
			// prior, so its objective is the served ETDD.
			if obj := warm.Iterations[len(warm.Iterations)-1].MasterObj; math.Abs(obj-warm.ETDD) > 1e-6*warm.ETDD {
				t.Errorf("donor-resumed master objective %v, ETDD %v", obj, warm.ETDD)
			}
			if lb := max(warm.LowerBound, cold.LowerBound); warm.ETDD < lb-1e-9 {
				t.Errorf("donor-resumed ETDD %v below the lower bound %v", warm.ETDD, lb)
			}
			if limit := cold.ETDD * (1 + donorOpts.RelGap); warm.ETDD > limit {
				t.Errorf("donor-resumed ETDD %v above cold ETDD %v × (1 + RelGap)", warm.ETDD, cold.ETDD)
			}
			served, _, err := pr.EnforceGeoI(warm.Mechanism, GeoITol)
			if err != nil {
				t.Fatalf("EnforceGeoI: %v", err)
			}
			if v := pr.GeoIViolation(served); v > 1e-9 {
				t.Errorf("served Geo-I violation %g", v)
			}
		})
	}

	// Four concurrent resumes share the donor state; the race detector
	// and the fingerprint both watch for writes to it.
	before := stateFingerprint(donor.State)
	columns := donor.State.Columns()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for w := range errs {
		prior := jitteredPrior(rand.New(rand.NewSource(int64(10+w))), base, 0.001)
		pr := problem(prior)
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := donorOpts
			opts.Resume = donor.State
			_, errs[w] = SolveCG(pr, opts)
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("concurrent resume %d: %v", w, err)
		}
	}
	if got := donor.State.Columns(); got != columns {
		t.Errorf("donor pool grew from %d to %d columns", columns, got)
	}
	if stateFingerprint(donor.State) != before {
		t.Error("concurrent resumes wrote to the donor state")
	}
}
