package vlp

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/roadnet"
)

// smallNetwork builds a 2×2 two-way grid through the public API.
func smallNetwork() *RoadNetwork {
	r := NewRoadNetwork()
	a := r.AddNode(0, 0)
	b := r.AddNode(0.4, 0)
	c := r.AddNode(0, 0.4)
	d := r.AddNode(0.4, 0.4)
	r.AddTwoWayRoad(a, b, 0)
	r.AddTwoWayRoad(a, c, 0)
	r.AddTwoWayRoad(b, d, 0)
	r.AddRoad(c, d, 0) // one one-way street
	r.AddRoad(d, c, 0.55)
	return r
}

func TestBuildValidation(t *testing.T) {
	r := smallNetwork()
	if _, err := Build(r, Params{Epsilon: 5}); err == nil {
		t.Fatal("accepted zero Delta")
	}
	if _, err := Build(r, Params{Delta: 0.2}); err == nil {
		t.Fatal("accepted zero Epsilon")
	}
}

func TestBuildAndObfuscate(t *testing.T) {
	r := smallNetwork()
	m, err := Build(r, Params{Epsilon: 4, Delta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumIntervals() <= 0 {
		t.Fatal("no intervals")
	}
	if v := m.GeoIViolation(); v > core.GeoITol {
		t.Fatalf("mechanism violates Geo-I by %v", v)
	}
	if m.QualityLoss() < m.LowerBound()-1e-9 {
		t.Fatalf("quality loss %v below its lower bound %v", m.QualityLoss(), m.LowerBound())
	}

	rng := rand.New(rand.NewSource(1))
	truth := Location{Road: 0, FromStart: 0.1}
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		obf := m.Obfuscate(rng, truth)
		if obf.Road < 0 || obf.FromStart < 0 {
			t.Fatalf("invalid obfuscated location %+v", obf)
		}
		seen[m.IntervalOf(obf)] = true
	}
	if len(seen) < 2 {
		t.Fatal("obfuscation is deterministic; expected randomisation")
	}
}

// TestBuildRepairsGeoIResidue pins the repair gate on an instance whose
// raw column-generation output overshoots the Geo-I ceiling (6.4e-8 at
// vlpserved's stop rule, under either SYRK kernel): Build must hand out
// the repaired mechanism and report its ETDD.
func TestBuildRepairsGeoIResidue(t *testing.T) {
	const delta, eps = 0.2, 5.0
	grid := func() *RoadNetwork {
		return &RoadNetwork{g: roadnet.Grid(rand.New(rand.NewSource(5)), roadnet.GridConfig{
			Rows: 2, Cols: 3, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.15,
		})}
	}
	part, err := discretize.New(grid().g, delta)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.NewProblem(part, core.Config{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := core.SolveCG(pr, core.CGOptions{}.ServingStop())
	if err != nil {
		t.Fatal(err)
	}
	if v := pr.GeoIViolation(raw.Mechanism); v <= core.GeoITol {
		t.Fatalf("raw violation %v no longer exceeds %v: pick an instance that exercises the repair", v, core.GeoITol)
	}

	m, err := Build(grid(), Params{Epsilon: eps, Delta: delta})
	if err != nil {
		t.Fatal(err)
	}
	if v := m.GeoIViolation(); v > core.GeoITol {
		t.Fatalf("Build handed out a mechanism violating Geo-I by %v", v)
	}
	prob, mech, _ := m.Internal()
	if got := prob.ETDD(mech); math.Abs(got-m.QualityLoss()) > 1e-12 {
		t.Fatalf("QualityLoss %v is not the served mechanism's ETDD %v", m.QualityLoss(), got)
	}
}

func TestProbabilitiesRowStochastic(t *testing.T) {
	m, err := Build(smallNetwork(), Params{Epsilon: 4, Delta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.NumIntervals(); i++ {
		row := m.Probabilities(i)
		sum := 0.0
		for _, p := range row {
			if p < 0 {
				t.Fatalf("negative probability in row %d", i)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestAdversaryError(t *testing.T) {
	strict, err := Build(smallNetwork(), Params{Epsilon: 1, Delta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Build(smallNetwork(), Params{Epsilon: 10, Delta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := strict.AdversaryError()
	if err != nil {
		t.Fatal(err)
	}
	la, err := loose.AdversaryError()
	if err != nil {
		t.Fatal(err)
	}
	if sa <= la {
		t.Fatalf("stronger privacy (ε=1) must yield higher AdvError: %v vs %v", sa, la)
	}
}

func TestCustomPriors(t *testing.T) {
	r := smallNetwork()
	probe, err := Build(r, Params{Epsilon: 4, Delta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	k := probe.NumIntervals()
	prior := make([]float64, k)
	for i := range prior {
		prior[i] = 1 / float64(k)
	}
	if _, err := Build(r, Params{Epsilon: 4, Delta: 0.2, WorkerPrior: prior, TaskPrior: prior}); err != nil {
		t.Fatal(err)
	}
	bad := make([]float64, k)
	bad[0] = 2
	if _, err := Build(r, Params{Epsilon: 4, Delta: 0.2, WorkerPrior: bad}); err == nil {
		t.Fatal("accepted non-normalised prior")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, err := Build(smallNetwork(), Params{Epsilon: 4, Delta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumIntervals() != m.NumIntervals() {
		t.Fatalf("K changed: %d vs %d", m2.NumIntervals(), m.NumIntervals())
	}
	if math.Abs(m2.QualityLoss()-m.QualityLoss()) > 1e-12 {
		t.Fatal("recorded quality loss changed")
	}
	for i := 0; i < m.NumIntervals(); i++ {
		a, b := m.Probabilities(i), m2.Probabilities(i)
		for l := range a {
			if math.Abs(a[l]-b[l]) > 1e-12 {
				t.Fatalf("row %d diverged after round trip", i)
			}
		}
	}
	if v := m2.GeoIViolation(); v > core.GeoITol {
		t.Fatalf("loaded mechanism violates Geo-I by %v", v)
	}
	rng := rand.New(rand.NewSource(2))
	obf := m2.Obfuscate(rng, Location{Road: 0, FromStart: 0.1})
	if obf.Road < 0 {
		t.Fatal("loaded mechanism cannot obfuscate")
	}
}

func TestCalibrateEpsilonFacade(t *testing.T) {
	m, err := CalibrateEpsilon(smallNetwork(), 0.3, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := m.AdversaryError()
	if err != nil {
		t.Fatal(err)
	}
	if adv <= 0 {
		t.Fatalf("calibrated mechanism has zero adversary error")
	}
	if v := m.GeoIViolation(); v > core.GeoITol {
		t.Fatalf("calibrated mechanism violates Geo-I by %v", v)
	}
}
