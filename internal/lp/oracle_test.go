package lp_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/geoi"
	"repro/internal/lp"
	"repro/internal/roadnet"
)

// oracleDigests pins the SHA-256 of lp.Solve's outcomes on each case of
// TestSolveOracleBitsPinned: the status, the pivot count and the float64 bits of the
// objective, the primal point and the duals. The golden mechanism table
// reaches only Prepared and the IPM (through SolveCG); this one pins the
// one-shot simplex that core.SolveDirect and the lp tests use as the
// oracle, so a pivot rule change that moves any pivot fails here.
var oracleDigests = map[string]string{
	"beale":       "3e9a29d9091691ab68b9e17a2e76375350899cd656583db4d2c23d3622b14b7b",
	"transport":   "addbf20017b2129a814640e7d67446c0f966dcdc74d9c8c80a6d4cd3d8729a4e",
	"random":      "7426ec9ba429bf7653a10b95a3d294b68dcfde23c1442d9c0f4b52343bee3ea3",
	"K12-reduced": "a3d7f54a6fdace30a8ccd1f2bdd394160226734dd00534a5ff284004b9bde14c",
	"K12-full":    "b05800d4a1d25f31fc4ed4372313074fac7e6a9ef2de7d6f4bceb69c1d6a19fb",
}

// writeSolution feeds one outcome into h.
func writeSolution(h hash.Hash, sol *lp.Solution) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(sol.Status))
	put(uint64(sol.Iterations))
	put(math.Float64bits(sol.Objective))
	put(uint64(len(sol.X)))
	for _, v := range sol.X {
		put(math.Float64bits(v))
	}
	put(uint64(len(sol.Duals)))
	for _, v := range sol.Duals {
		put(math.Float64bits(v))
	}
}

// bealeProblem is Beale's cycling example, the LP of
// TestDegenerateCycleGuard.
func bealeProblem() *lp.Problem {
	p := lp.NewProblem(4)
	p.SetObjective([]float64{-0.75, 150, -0.02, 6})
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 0.25}, {Var: 1, Coef: -60}, {Var: 2, Coef: -0.04}, {Var: 3, Coef: 9}}, lp.LE, 0)
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 0.5}, {Var: 1, Coef: -90}, {Var: 2, Coef: -0.02}, {Var: 3, Coef: 3}}, lp.LE, 0)
	p.AddConstraint([]lp.Term{{Var: 2, Coef: 1}}, lp.LE, 1)
	return p
}

// transportProblem is the balanced 6×6 transportation LP of
// TestLargerTransportation.
func transportProblem() *lp.Problem {
	const k = 6
	p := lp.NewProblem(k * k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			p.SetObjectiveCoeff(i*k+j, float64((i+1)*(j+1)))
		}
	}
	for i := 0; i < k; i++ {
		terms := make([]lp.Term, k)
		for j := range terms {
			terms[j] = lp.Term{Var: i*k + j, Coef: 1}
		}
		p.AddConstraint(terms, lp.EQ, 10)
	}
	for j := 0; j < k; j++ {
		terms := make([]lp.Term, k)
		for i := range terms {
			terms[i] = lp.Term{Var: i*k + j, Coef: 1}
		}
		p.AddConstraint(terms, lp.EQ, 10)
	}
	return p
}

// randomProblems draws seeded LE/GE/EQ mixes with signed costs and
// coefficients. LE rows get a non-negative right-hand side, GE and EQ
// rows a signed one, and every other LP a box row Σx ≤ 20, so the set
// holds optimal, infeasible and unbounded LPs.
func randomProblems() []*lp.Problem {
	rng := rand.New(rand.NewSource(31))
	var out []*lp.Problem
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(6)
		m := 2 + rng.Intn(7)
		p := lp.NewProblem(n)
		for j := 0; j < n; j++ {
			p.SetObjectiveCoeff(j, rng.NormFloat64()*3)
		}
		for i := 0; i < m; i++ {
			var terms []lp.Term
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.6 {
					terms = append(terms, lp.Term{Var: j, Coef: rng.NormFloat64() * 2})
				}
			}
			if len(terms) == 0 {
				terms = append(terms, lp.Term{Var: rng.Intn(n), Coef: 1})
			}
			op := []lp.Op{lp.LE, lp.GE, lp.EQ}[rng.Intn(3)]
			rhs := rng.NormFloat64() * 5
			if op == lp.LE {
				rhs = math.Abs(rhs)
			}
			p.AddConstraint(terms, op, rhs)
		}
		if trial%2 == 0 {
			box := make([]lp.Term, n)
			for j := range box {
				box[j] = lp.Term{Var: j, Coef: 1}
			}
			p.AddConstraint(box, lp.LE, 20)
		}
		out = append(out, p)
	}
	return out
}

// directProblem builds core.SolveDirect's D-VLP LP for the golden K12
// instance (the 2×2 grid at δ 0.3, ε 5), row for row.
func directProblem(t *testing.T, full bool) (*lp.Problem, *core.DirectResult) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	g := roadnet.Grid(rng, roadnet.GridConfig{Rows: 2, Cols: 2, Spacing: 0.3, OneWayFrac: 0.5, WeightJitter: 0.15})
	part, err := discretize.New(g, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.NewProblem(part, core.Config{Epsilon: 5})
	if err != nil {
		t.Fatal(err)
	}
	k := part.K()
	p := lp.NewProblem(k * k)
	p.SetObjective(pr.Costs)
	for i := 0; i < k; i++ {
		terms := make([]lp.Term, k)
		for l := range terms {
			terms[l] = lp.Term{Var: i*k + l, Coef: 1}
		}
		p.AddConstraint(terms, lp.EQ, 1)
	}
	addPair := func(a, b int, d, eps float64) {
		f := math.Exp(eps * d)
		for j := 0; j < k; j++ {
			p.AddConstraint([]lp.Term{{Var: a*k + j, Coef: 1}, {Var: b*k + j, Coef: -f}}, lp.LE, 0)
		}
	}
	if full {
		for _, q := range geoi.FullPairs(pr.Part, pr.Radius) {
			addPair(q.I, q.L, q.D, pr.PairEps(q.I, q.L))
		}
	} else {
		for _, q := range pr.Red().Pairs {
			eps := pr.Eps
			if q.Eps > 0 {
				eps = q.Eps
			}
			addPair(q.A, q.B, q.D, eps)
			addPair(q.B, q.A, q.D, eps)
		}
	}
	res, err := core.SolveDirect(pr, core.DirectOptions{FullConstraints: full})
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

// TestSolveOracleBitsPinned is the oracle's "bits change only on
// purpose" gate: every case must reproduce its pinned digest, and the
// random mix must still reach all three verdicts.
func TestSolveOracleBitsPinned(t *testing.T) {
	cases := map[string][]*lp.Problem{
		"beale":     {bealeProblem()},
		"transport": {transportProblem()},
		"random":    randomProblems(),
	}
	for _, full := range []bool{false, true} {
		p, res := directProblem(t, full)
		name := "K12-reduced"
		if full {
			name = "K12-full"
		}
		cases[name] = []*lp.Problem{p}
		sol, err := lp.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		// The rebuilt LP is SolveDirect's: same size, same pivots.
		if p.NumConstraints() != res.Rows || p.NumVars() != res.Cols || sol.Iterations != res.Iterations {
			t.Fatalf("%s: rebuilt LP %d×%d in %d pivots, SolveDirect %d×%d in %d", name,
				p.NumConstraints(), p.NumVars(), sol.Iterations, res.Rows, res.Cols, res.Iterations)
		}
	}
	seen := map[lp.Status]int{}
	for name, probs := range cases {
		h := sha256.New()
		for _, p := range probs {
			sol, err := lp.Solve(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if name == "random" {
				seen[sol.Status]++
			}
			writeSolution(h, sol)
		}
		got := hex.EncodeToString(h.Sum(nil))
		if want := oracleDigests[name]; got != want {
			t.Errorf("%s: oracle digest %s, pinned %s", name, got, want)
		}
	}
	for _, st := range []lp.Status{lp.Optimal, lp.Infeasible, lp.Unbounded} {
		if seen[st] == 0 {
			t.Errorf("random mix reaches no %v LP (verdicts %v)", st, seen)
		}
	}
}
