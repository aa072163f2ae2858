package serial

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
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
	for name, prior := range map[string][]float64{"prior": s.Prior, "task_prior": s.TaskPrior} {
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
	var priorP, priorQ []float64
	if len(s.Prior) > 0 {
		priorP, priorQ = s.Prior, s.Prior
	}
	if len(s.TaskPrior) > 0 {
		priorQ = s.TaskPrior
	}
	return core.NewProblem(part, core.Config{
		Epsilon: s.Epsilon,
		Radius:  s.Radius,
		PriorP:  priorP,
		PriorQ:  priorQ,
	})
}

// Digest returns a deterministic content digest of the spec: the
// hex-encoded SHA-256 of a canonical binary encoding of the network
// topology and every solve parameter. Equal specs always digest equal;
// the digest is stable across processes and releases of this package
// (the encoding is versioned).
func (s *SolveSpec) Digest() string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }

	h.Write([]byte("vlp-solve-spec-v1"))
	u64(uint64(len(s.Network.Nodes)))
	for _, n := range s.Network.Nodes {
		f64(n.X)
		f64(n.Y)
	}
	u64(uint64(len(s.Network.Edges)))
	for _, e := range s.Network.Edges {
		u64(uint64(int64(e.From)))
		u64(uint64(int64(e.To)))
		f64(e.Weight)
	}
	f64(s.Delta)
	f64(s.Epsilon)
	f64(s.Radius)
	u64(uint64(len(s.Prior)))
	for _, p := range s.Prior {
		f64(p)
	}
	u64(uint64(len(s.TaskPrior)))
	for _, p := range s.TaskPrior {
		f64(p)
	}
	if s.Exact {
		u64(1)
	} else {
		u64(0)
	}
	return hex.EncodeToString(h.Sum(nil))
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
