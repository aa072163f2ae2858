package serial

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/roadnet"
)

func testSpec(t *testing.T) *SolveSpec {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	g := roadnet.Grid(rng, roadnet.GridConfig{Rows: 2, Cols: 2, Spacing: 0.3, WeightJitter: 0.1})
	return &SolveSpec{Network: FromGraph(g), Delta: 0.2, Epsilon: 5}
}

func TestDigestDeterministic(t *testing.T) {
	a, b := testSpec(t), testSpec(t)
	if a.Digest() != b.Digest() {
		t.Fatal("equal specs produced different digests")
	}
	if len(a.Digest()) != 64 {
		t.Fatalf("digest is not hex SHA-256: %q", a.Digest())
	}
}

// TestDigestPinned pins the digest of one literal spec that sets every
// field of the preimage. Cache keys and store file names are this
// digest, so a change to its encoding orphans every stored mechanism:
// it must change only on purpose, with a new version tag.
func TestDigestPinned(t *testing.T) {
	spec := &SolveSpec{
		Network: &Network{
			Nodes: []Node{{X: 0, Y: 0}, {X: 0.4, Y: 0}, {X: 0, Y: 0.3}},
			Edges: []Edge{{From: 0, To: 1, Weight: 0.4}, {From: 1, To: 2, Weight: 0.55}, {From: 2, To: 0, Weight: 0.3}},
		},
		Delta:     0.1,
		Epsilon:   5,
		Radius:    0.5,
		Prior:     []float64{0.25, 0.75},
		TaskPrior: []float64{0.5, 0.5},
		Exact:     true,
	}
	const want = "9ef83919004813a0a547ef2d54ed894f80aa7ea52b5f73076723696101201470"
	if got := spec.Digest(); got != want {
		t.Fatalf("SolveSpec digest %s, pinned %s", got, want)
	}
}

func TestDigestSensitivity(t *testing.T) {
	base := testSpec(t).Digest()
	mutations := map[string]func(*SolveSpec){
		"delta":      func(s *SolveSpec) { s.Delta = 0.25 },
		"epsilon":    func(s *SolveSpec) { s.Epsilon = 4 },
		"radius":     func(s *SolveSpec) { s.Radius = 1 },
		"exact":      func(s *SolveSpec) { s.Exact = true },
		"prior":      func(s *SolveSpec) { s.Prior = []float64{1} },
		"task prior": func(s *SolveSpec) { s.TaskPrior = []float64{1} },
		"node":       func(s *SolveSpec) { s.Network.Nodes[0].X += 0.01 },
		"edge":       func(s *SolveSpec) { s.Network.Edges[0].Weight += 0.01 },
	}
	for name, mutate := range mutations {
		s := testSpec(t)
		mutate(s)
		if s.Digest() == base {
			t.Errorf("mutating %s did not change the digest", name)
		}
	}
}

func TestSolveSpecValidate(t *testing.T) {
	if err := testSpec(t).Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := map[string]func(*SolveSpec){
		"nil network":     func(s *SolveSpec) { s.Network = nil },
		"no edges":        func(s *SolveSpec) { s.Network.Edges = nil },
		"zero delta":      func(s *SolveSpec) { s.Delta = 0 },
		"nan delta":       func(s *SolveSpec) { s.Delta = math.NaN() },
		"inf delta":       func(s *SolveSpec) { s.Delta = math.Inf(1) },
		"zero epsilon":    func(s *SolveSpec) { s.Epsilon = 0 },
		"negative radius": func(s *SolveSpec) { s.Radius = -1 },
		"nan node":        func(s *SolveSpec) { s.Network.Nodes[0].X = math.NaN() },
		"inf edge weight": func(s *SolveSpec) { s.Network.Edges[0].Weight = math.Inf(1) },
		"negative prior":  func(s *SolveSpec) { s.Prior = []float64{-0.5, 1.5} },
		"nan task prior":  func(s *SolveSpec) { s.TaskPrior = []float64{math.NaN()} },
	}
	for name, mutate := range bad {
		s := testSpec(t)
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

// TestSolveSpecValidateStableError checks that a spec whose two priors
// are both invalid always gets the same error: identical bad /solve or
// /obfuscate requests must get identical 400 bodies.
func TestSolveSpecValidateStableError(t *testing.T) {
	s := testSpec(t)
	s.Prior = []float64{-1}
	s.TaskPrior = []float64{-1}
	const want = "serial: prior[0] = -1 is not a probability"
	for i := 0; i < 200; i++ {
		if err := s.Validate(); err == nil || err.Error() != want {
			t.Fatalf("call %d: Validate = %v, want %q", i, err, want)
		}
	}
}
