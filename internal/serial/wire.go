package serial

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"repro/internal/core"
	"repro/internal/discretize"
)

// maxWireK bounds the interval count any wire-level mechanism or solve
// spec may claim; it matches discretize's own partition-size cap.
const maxWireK = 1 << 20

// SolveSpec identifies one obfuscation mechanism: the road network plus
// every parameter that shapes the solved matrix. Two specs with the same
// Digest are guaranteed to describe the same mechanism, which is what the
// serving layer keys its cache on.
type SolveSpec struct {
	Network *Network `json:"network"`
	Delta   float64  `json:"delta"`
	Epsilon float64  `json:"epsilon"`
	Radius  float64  `json:"radius,omitempty"`
	// Prior is the worker prior f_P over intervals; nil means uniform.
	Prior []float64 `json:"prior,omitempty"`
	// TaskPrior is the task prior f_Q; nil falls back to Prior.
	TaskPrior []float64 `json:"task_prior,omitempty"`
	Exact     bool      `json:"exact,omitempty"`
}

// Validate rejects specs the solver cannot accept: a missing or invalid
// network, non-finite or non-positive delta/epsilon, a non-finite radius
// or prior entries that are not probabilities. Full prior normalisation
// is left to the solver (which checks the sum against K).
func (s *SolveSpec) Validate() error {
	if s.Network == nil || len(s.Network.Nodes) == 0 || len(s.Network.Edges) == 0 {
		return fmt.Errorf("serial: solve spec has no network")
	}
	for i, n := range s.Network.Nodes {
		if !finite(n.X) || !finite(n.Y) {
			return fmt.Errorf("serial: node %d has non-finite position", i)
		}
	}
	for i, e := range s.Network.Edges {
		if !finite(e.Weight) {
			return fmt.Errorf("serial: edge %d has non-finite weight", i)
		}
	}
	if !(s.Delta > 0) || !finite(s.Delta) {
		return fmt.Errorf("serial: invalid delta %v", s.Delta)
	}
	if !(s.Epsilon > 0) || !finite(s.Epsilon) {
		return fmt.Errorf("serial: invalid epsilon %v", s.Epsilon)
	}
	if !finite(s.Radius) || s.Radius < 0 {
		return fmt.Errorf("serial: invalid radius %v", s.Radius)
	}
	// A fixed order: a spec with two bad priors must get the same error,
	// and the same 400 body, on every call.
	for k, prior := range [...][]float64{s.Prior, s.TaskPrior} {
		name := [...]string{"prior", "task_prior"}[k]
		if len(prior) > maxWireK {
			return fmt.Errorf("serial: %s has %d entries, cap is %d", name, len(prior), maxWireK)
		}
		for i, p := range prior {
			if !(p >= 0) || !finite(p) {
				return fmt.Errorf("serial: %s[%d] = %v is not a probability", name, i, p)
			}
		}
	}
	return nil
}

// Problem runs the offline pipeline up to the assembled D-VLP instance:
// discretise the network and build the costs (the reduced Geo-I
// constraints follow on the first solve that needs them). A spec-level
// error here means no mechanism, not even the fallback, can exist.
func (s *SolveSpec) Problem() (*core.Problem, error) {
	g, err := s.Network.ToGraph()
	if err != nil {
		return nil, err
	}
	part, err := discretize.New(g, s.Delta)
	if err != nil {
		return nil, err
	}
	priorP, priorQ := s.priors()
	return core.NewProblem(part, core.Config{
		Epsilon: s.Epsilon,
		Radius:  s.Radius,
		PriorP:  priorP,
		PriorQ:  priorQ,
	})
}

// ProblemOn builds the spec's D-VLP instance on an existing geometry
// instead of deriving one: only the priors and the cost matrix are new.
// The caller vouches that geo is what Problem would derive, i.e. that it
// came from a spec with the same GeometryKey.
func (s *SolveSpec) ProblemOn(geo *core.Geometry) (*core.Problem, error) {
	priorP, priorQ := s.priors()
	return core.NewProblemOn(geo, priorP, priorQ)
}

// priors returns the worker and task priors the spec asks for (nil for
// uniform): the task prior falls back to the worker prior.
func (s *SolveSpec) priors() (priorP, priorQ []float64) {
	if len(s.Prior) > 0 {
		priorP, priorQ = s.Prior, s.Prior
	}
	if len(s.TaskPrior) > 0 {
		priorQ = s.TaskPrior
	}
	return priorP, priorQ
}

// specHash writes the canonical binary encoding that Digest and
// GeometryKey hash.
type specHash struct {
	h   hash.Hash
	buf [8]byte
}

func newSpecHash(tag string) *specHash {
	w := &specHash{h: sha256.New()}
	w.h.Write([]byte(tag))
	return w
}

func (w *specHash) u64(v uint64) {
	binary.BigEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *specHash) f64(v float64) { w.u64(math.Float64bits(v)) }

// geometry writes the fields the prior-independent half of the problem
// depends on: the network topology, δ, ε and r.
func (w *specHash) geometry(s *SolveSpec) {
	w.u64(uint64(len(s.Network.Nodes)))
	for _, n := range s.Network.Nodes {
		w.f64(n.X)
		w.f64(n.Y)
	}
	w.u64(uint64(len(s.Network.Edges)))
	for _, e := range s.Network.Edges {
		w.u64(uint64(int64(e.From)))
		w.u64(uint64(int64(e.To)))
		w.f64(e.Weight)
	}
	w.f64(s.Delta)
	w.f64(s.Epsilon)
	w.f64(s.Radius)
}

// Digest returns a deterministic content digest of the spec: the
// hex-encoded SHA-256 of a canonical binary encoding of the network
// topology and every solve parameter. Equal specs always digest equal;
// the digest is stable across processes and releases of this package
// (the encoding is versioned).
func (s *SolveSpec) Digest() string {
	w := newSpecHash("vlp-solve-spec-v1")
	w.geometry(s)
	w.u64(uint64(len(s.Prior)))
	for _, p := range s.Prior {
		w.f64(p)
	}
	w.u64(uint64(len(s.TaskPrior)))
	for _, p := range s.TaskPrior {
		w.f64(p)
	}
	if s.Exact {
		w.u64(1)
	} else {
		w.u64(0)
	}
	return hex.EncodeToString(w.h.Sum(nil))
}

// GeometryKey returns the SHA-256 of the Digest encoding restricted to
// the network, δ, ε and r — everything core.Geometry depends on, and
// nothing else. Specs with equal keys derive the same geometry whatever
// their priors or exact flag.
func (s *SolveSpec) GeometryKey() [sha256.Size]byte {
	w := newSpecHash("vlp-geometry-v1")
	w.geometry(s)
	var key [sha256.Size]byte
	w.h.Sum(key[:0])
	return key
}

// Quality tiers of a served mechanism, carried on every solve and
// obfuscate response. The privacy guarantee is identical at every tier —
// each served mechanism satisfies the full (ε, r)-Geo-I constraint set —
// only the quality loss (ETDD) degrades down the ladder.
const (
	// QualityOptimal: the column-generation solve completed as
	// configured (within its deadline and stop criteria).
	QualityOptimal = "optimal"
	// QualityIncumbent: the solve was interrupted (deadline, client
	// abandonment or shutdown drain) and the best incumbent of the
	// interrupted run was repaired to exact feasibility and served.
	QualityIncumbent = "incumbent"
	// QualityFallback: the solver failed outright (error, panic or
	// cancellation before a first incumbent existed) and the closed-form
	// ε/2 exponential mechanism is served instead.
	QualityFallback = "fallback"
)

// Loc is an on-network location in the public road/from-start
// convention: the Road-th directed edge (insertion order) at travel
// distance FromStart from its starting connection.
type Loc struct {
	Road      int     `json:"road"`
	FromStart float64 `json:"from_start"`
}

// SolveResponse answers POST /solve.
type SolveResponse struct {
	Key    string  `json:"key"`
	Cached bool    `json:"cached"`
	K      int     `json:"k"`
	ETDD   float64 `json:"etdd"`
	Bound  float64 `json:"lower_bound"`
	// SolveMs is the wall time of the cold solve that produced the cached
	// mechanism (0 reported only if the server predates the field).
	SolveMs float64 `json:"solve_ms"`
	// Quality is the serving tier of the mechanism (QualityOptimal,
	// QualityIncumbent or QualityFallback); empty only from a server
	// that predates the degradation ladder.
	Quality string `json:"quality,omitempty"`
}

// ObfuscateRequest asks POST /obfuscate for obfuscated replacements of a
// batch of true locations; the embedded spec selects (and on a cache
// miss, triggers the solve of) the mechanism.
type ObfuscateRequest struct {
	SolveSpec
	Locations []Loc `json:"locations"`
}

// ObfuscateResponse carries the obfuscated batch in input order.
type ObfuscateResponse struct {
	Key    string `json:"key"`
	Cached bool   `json:"cached"`
	// Quality is the serving tier of the mechanism that produced the
	// batch; see the Quality constants.
	Quality   string `json:"quality,omitempty"`
	Locations []Loc  `json:"locations"`
}

// ErrorResponse is the JSON body of every non-2xx service answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
