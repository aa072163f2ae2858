package core

import "testing"

func TestSolveCGRelGapStops(t *testing.T) {
	pr := smallProblem(t, 32, 3)
	loose, err := SolveCG(pr, CGOptions{Xi: 0, RelGap: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := SolveCG(pr, CGOptions{Xi: 0, RelGap: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if len(loose.Iterations) > len(tight.Iterations) {
		t.Fatalf("25%% gap took more iterations (%d) than 2%% gap (%d)",
			len(loose.Iterations), len(tight.Iterations))
	}
	if gap := (tight.ETDD - tight.LowerBound) / tight.ETDD; gap > 0.021 {
		t.Fatalf("tight solve stopped with gap %v > 2%%", gap)
	}
}

func TestSolveCGRejectsPositiveXi(t *testing.T) {
	pr := tinyProblem(t, 33, 3)
	if _, err := SolveCG(pr, CGOptions{Xi: 0.5}); err == nil {
		t.Fatal("accepted positive Xi")
	}
}

func TestCGIterationTraceConsistent(t *testing.T) {
	pr := smallProblem(t, 35, 3)
	var seen []CGIteration
	sol, err := SolveCG(pr, CGOptions{Xi: 0, RelGap: 0.05,
		OnIteration: func(i int, it CGIteration) {
			if i != len(seen) {
				t.Fatalf("iteration index %d out of order", i)
			}
			seen = append(seen, it)
		}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(sol.Iterations) {
		t.Fatalf("observer saw %d iterations, result has %d", len(seen), len(sol.Iterations))
	}
	// The master objective must be non-increasing across rounds.
	for i := 1; i < len(seen); i++ {
		if seen[i].MasterObj > seen[i-1].MasterObj+1e-6 {
			t.Fatalf("master objective rose: %v -> %v", seen[i-1].MasterObj, seen[i].MasterObj)
		}
	}
	// The recorded best bound never exceeds the final quality loss.
	for _, it := range seen {
		if it.LowerBound > sol.ETDD+1e-6 {
			t.Fatalf("iteration bound %v above final ETDD %v", it.LowerBound, sol.ETDD)
		}
	}
}

func TestMechanismValidateShape(t *testing.T) {
	pr := tinyProblem(t, 36, 3)
	m := &Mechanism{Part: pr.Part, Z: []float64{1, 2, 3}}
	if err := m.Validate(); err == nil {
		t.Fatal("accepted wrong-shaped mechanism")
	}
}

func TestExponentialMechanismMonotoneInEps(t *testing.T) {
	// Sharper ε concentrates the exponential mechanism: self-probability
	// must rise with ε.
	prev := 0.0
	for _, eps := range []float64{1, 3, 9} {
		base := tinyProblem(t, 37, eps)
		m := base.ExponentialMechanism()
		self := 0.0
		for i := 0; i < m.K(); i++ {
			self += m.Prob(i, i)
		}
		self /= float64(m.K())
		if self < prev {
			t.Fatalf("self-probability fell from %v to %v as eps rose to %v", prev, self, eps)
		}
		prev = self
	}
}
