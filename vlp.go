// Package vlp is the public façade of the road-network
// geo-indistinguishability library — a reproduction of "Location Privacy
// Protection in Vehicle-Based Spatial Crowdsourcing via
// Geo-Indistinguishability" (Qiu & Squicciarini, ICDCS 2019 / IEEE TMC).
//
// The library obfuscates vehicle locations over a road network so that a
// spatial-crowdsourcing server can estimate travel costs accurately
// while the vehicle's true position stays (ε, r)-geo-indistinguishable
// under the shortest-path metric. The headline pipeline:
//
//	g := vlp.NewRoadNetwork()
//	a := g.AddNode(0, 0)
//	b := g.AddNode(1, 0)
//	g.AddTwoWayRoad(a, b, 0) // weight 0 = Euclidean length
//
//	mech, err := vlp.Build(g, vlp.Params{Epsilon: 5, Delta: 0.1})
//	obf := mech.Obfuscate(rng, trueLocation)
//
// Underneath, Build discretises the network into δ-intervals, assembles
// the D-VLP linear program with the paper's constraint reduction
// (Theorem 4.2) and solves it by Dantzig–Wolfe column generation
// (Section 4.3). See internal/core for the full solver surface,
// internal/planar for the 2D baseline, internal/attack for the threat
// models and internal/experiments for the paper's evaluation figures.
package vlp

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/calibrate"
	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/geom"
	"repro/internal/roadnet"
	"repro/internal/serial"
)

// RoadNetwork is a weighted directed road graph builder.
type RoadNetwork struct {
	g *roadnet.Graph
}

// NewRoadNetwork returns an empty network.
func NewRoadNetwork() *RoadNetwork {
	return &RoadNetwork{g: roadnet.NewGraph()}
}

// AddNode inserts a road connection at planar position (x, y) km and
// returns its identifier.
func (r *RoadNetwork) AddNode(x, y float64) int {
	return int(r.g.AddNode(geom.Point{X: x, Y: y}))
}

// AddRoad inserts a one-way road segment from node a to node b with the
// given travel weight in km (non-positive selects Euclidean length).
func (r *RoadNetwork) AddRoad(a, b int, weight float64) {
	r.g.AddEdge(roadnet.NodeID(a), roadnet.NodeID(b), weight)
}

// AddTwoWayRoad inserts both directions of a two-way street.
func (r *RoadNetwork) AddTwoWayRoad(a, b int, weight float64) {
	r.g.AddTwoWay(roadnet.NodeID(a), roadnet.NodeID(b), weight)
}

// Location is a point on the road network: the i-th directed road (in
// insertion order) at a travel distance FromStart from its starting
// connection.
type Location struct {
	Road      int
	FromStart float64
}

// Params configures Build.
type Params struct {
	// Epsilon is the geo-indistinguishability privacy parameter in 1/km
	// (required, > 0). Smaller is more private.
	Epsilon float64
	// Radius is the protection radius r in km; ≤ 0 protects all pairs.
	Radius float64
	// Delta is the discretisation interval length in km (required, > 0).
	Delta float64
	// WorkerPrior and TaskPrior are optional distributions over the
	// discretised intervals (see Mechanism.NumIntervals); nil = uniform.
	WorkerPrior, TaskPrior []float64
	// Exact solves the LP to optimality; by default the solver stops at
	// a 2% dual gap, which is far below the obfuscation noise floor.
	Exact bool
}

// Mechanism is a solved obfuscation strategy.
type Mechanism struct {
	prob *core.Problem
	mech *core.Mechanism
	res  *core.CGResult
}

// Build discretises the network and solves the D-VLP obfuscation LP. The
// returned mechanism has passed the Geo-I repair gate vlpserved applies
// (GeoIViolation is at most core.GeoITol), and QualityLoss reports the
// repaired ETDD.
func Build(r *RoadNetwork, p Params) (*Mechanism, error) {
	if p.Delta <= 0 {
		return nil, fmt.Errorf("vlp: Delta must be positive, got %v", p.Delta)
	}
	part, err := discretize.New(r.g, p.Delta)
	if err != nil {
		return nil, err
	}
	prob, err := core.NewProblem(part, core.Config{
		Epsilon: p.Epsilon,
		Radius:  p.Radius,
		PriorP:  p.WorkerPrior,
		PriorQ:  p.TaskPrior,
	})
	if err != nil {
		return nil, err
	}
	opts := core.CGOptions{}.ServingStop()
	if p.Exact {
		opts = core.CGOptions{Xi: 0}
	}
	res, err := core.SolveCG(prob, opts)
	if err != nil {
		return nil, err
	}
	return repaired(prob, res)
}

// repaired wraps a solved mechanism after the same Geo-I repair gate
// vlpserved applies: solver output is feasible only to solver
// tolerance, so EnforceGeoI brings its violation to core.GeoITol, and
// res carries the repaired mechanism and its ETDD.
func repaired(prob *core.Problem, res *core.CGResult) (*Mechanism, error) {
	mech, etdd, err := prob.EnforceGeoI(res.Mechanism, core.GeoITol)
	if err != nil {
		return nil, err
	}
	res.Mechanism, res.ETDD = mech, etdd
	return &Mechanism{prob: prob, mech: mech, res: res}, nil
}

// NumIntervals returns K, the number of discretised intervals; priors
// passed to Build are vectors of this length (in interval index order —
// roads in insertion order, intervals from road start to end).
func (m *Mechanism) NumIntervals() int { return m.mech.K() }

// IntervalOf returns the interval index containing a location.
func (m *Mechanism) IntervalOf(l Location) int {
	return m.prob.Part.Locate(m.toInternal(l))
}

// Obfuscate draws an obfuscated location for the true location,
// preserving the relative position within the interval (paper Step II).
func (m *Mechanism) Obfuscate(rng *rand.Rand, truth Location) Location {
	obf := m.mech.Sample(rng, m.toInternal(truth))
	return m.fromInternal(obf)
}

// QualityLoss returns the mechanism's expected traveling-distance
// distortion (ETDD, km).
func (m *Mechanism) QualityLoss() float64 { return m.res.ETDD }

// LowerBound returns the best known lower bound on the optimal ETDD: the
// larger of the solver's dual bound (Theorem 4.4) and the closed-form
// privacy/QoS trade-off bound (Proposition 4.5).
func (m *Mechanism) LowerBound() float64 {
	b := m.res.LowerBound
	if p45 := m.prob.TradeoffLowerBound(m.prob.Eps); p45 > b {
		b = p45
	}
	return b
}

// AdversaryError returns the expected error (km) of the optimal Bayesian
// inference adversary against this mechanism — the paper's AdvError
// privacy metric (higher = more private).
func (m *Mechanism) AdversaryError() (float64, error) {
	b, err := attack.NewBayes(m.mech, m.prob.PriorP)
	if err != nil {
		return 0, err
	}
	return b.AdvError(), nil
}

// Probabilities returns a copy of the obfuscation distribution of the
// given true interval.
func (m *Mechanism) Probabilities(interval int) []float64 {
	return append([]float64(nil), m.mech.Row(interval)...)
}

// GeoIViolation returns the largest violation of the full (ε, r)-Geo-I
// constraint set (≤ 0 means exactly satisfied).
func (m *Mechanism) GeoIViolation() float64 {
	return m.prob.GeoIViolation(m.mech)
}

// Internal returns the underlying solver artifacts for advanced callers
// (attack simulation, custom evaluation).
func (m *Mechanism) Internal() (*core.Problem, *core.Mechanism, *core.CGResult) {
	return m.prob, m.mech, m.res
}

// Save writes the mechanism (with its network and discretisation) as
// JSON, loadable by Load and auditable by cmd/vlpattack.
func (m *Mechanism) Save(w io.Writer) error {
	return serial.WriteJSON(w, serial.FromMechanism(
		m.mech, m.prob.Part.Delta, m.prob.Eps, m.prob.Radius, m.res.ETDD, m.res.LowerBound))
}

// CalibrateEpsilon searches for the privacy parameter whose optimal
// mechanism yields (approximately) the requested adversary error in km —
// the operational way to pick ε. It solves several mechanisms; expect
// seconds to minutes depending on network size. Like Build, it returns
// the mechanism after the Geo-I repair gate.
func CalibrateEpsilon(r *RoadNetwork, delta, targetAdvError float64) (*Mechanism, error) {
	part, err := discretize.New(r.g, delta)
	if err != nil {
		return nil, err
	}
	res, err := calibrate.Epsilon(part, core.Config{Epsilon: 1}, targetAdvError, calibrate.Options{})
	if err != nil {
		return nil, err
	}
	prob, err := core.NewProblem(part, core.Config{Epsilon: res.Epsilon})
	if err != nil {
		return nil, err
	}
	return repaired(prob, &core.CGResult{Mechanism: res.Mechanism, ETDD: res.ETDD})
}

// Load reads a mechanism saved by Save (or produced by cmd/vlpsolve).
// The loaded mechanism supports Obfuscate, Probabilities and
// GeoIViolation; quality and adversary metrics are recomputed against a
// uniform prior since the original priors are not serialised.
func Load(r io.Reader) (*Mechanism, error) {
	var sm serial.Mechanism
	if err := serial.ReadJSON(r, &sm); err != nil {
		return nil, err
	}
	mech, err := sm.ToMechanism()
	if err != nil {
		return nil, err
	}
	prob, err := core.NewProblem(mech.Part, core.Config{
		Epsilon: sm.Epsilon,
		Radius:  sm.Radius,
	})
	if err != nil {
		return nil, err
	}
	res := &core.CGResult{Mechanism: mech, ETDD: sm.ETDD, LowerBound: sm.Bound}
	return &Mechanism{prob: prob, mech: mech, res: res}, nil
}

func (m *Mechanism) toInternal(l Location) roadnet.Location {
	return roadnet.LocationFromStart(m.prob.Part.G, roadnet.EdgeID(l.Road), l.FromStart)
}

func (m *Mechanism) fromInternal(l roadnet.Location) Location {
	return Location{Road: int(l.Edge), FromStart: l.FromStart(m.prob.Part.G)}
}
