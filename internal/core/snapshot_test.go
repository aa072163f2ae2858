package core

import (
	"math"
	"testing"
)

// TestCGStateSnapshotRoundTrip: export → restore must reproduce a state
// the solver accepts as a resume point, reaching the same answer.
func TestCGStateSnapshotRoundTrip(t *testing.T) {
	pr := smallProblem(t, 41, 5)
	first, err := SolveCG(pr, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap := first.State.Snapshot()
	if snap.K != pr.Part.K() || len(snap.Columns) != first.State.Columns() {
		t.Fatalf("snapshot shape K=%d columns=%d, want K=%d columns=%d",
			snap.K, len(snap.Columns), pr.Part.K(), first.State.Columns())
	}
	st, err := RestoreCGState(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !st.validFor(pr.Part.K()) {
		t.Fatal("restored state rejected by validFor")
	}
	resumed, err := SolveCG(pr, CGOptions{Resume: st})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resumed.ETDD-first.ETDD) > 1e-5*(1+first.ETDD) {
		t.Fatalf("resume from restored snapshot: ETDD %v vs %v", resumed.ETDD, first.ETDD)
	}
}

// TestRestoreCGStateRejectsMalformed: every structurally or numerically
// broken snapshot must be an error, never a usable state.
func TestRestoreCGStateRejectsMalformed(t *testing.T) {
	col := func(l int, z []float64, cost float64) CGColumnSnapshot {
		return CGColumnSnapshot{L: l, Z: z, Cost: cost}
	}
	ok2 := []float64{0.5, 0.5}
	cases := map[string]*CGStateSnapshot{
		"zero K":          {K: 0, Columns: []CGColumnSnapshot{col(0, nil, 0)}},
		"no columns":      {K: 2},
		"L out of range":  {K: 2, Columns: []CGColumnSnapshot{col(2, ok2, 0), col(0, ok2, 0)}},
		"negative L":      {K: 2, Columns: []CGColumnSnapshot{col(-1, ok2, 0), col(0, ok2, 0)}},
		"short column":    {K: 2, Columns: []CGColumnSnapshot{col(0, []float64{1}, 0), col(1, ok2, 0)}},
		"NaN entry":       {K: 2, Columns: []CGColumnSnapshot{col(0, []float64{math.NaN(), 0}, 0), col(1, ok2, 0)}},
		"entry above 1":   {K: 2, Columns: []CGColumnSnapshot{col(0, []float64{1.5, 0}, 0), col(1, ok2, 0)}},
		"negative entry":  {K: 2, Columns: []CGColumnSnapshot{col(0, []float64{-0.1, 0}, 0), col(1, ok2, 0)}},
		"NaN cost":        {K: 2, Columns: []CGColumnSnapshot{col(0, ok2, math.NaN()), col(1, ok2, 0)}},
		"negative cost":   {K: 2, Columns: []CGColumnSnapshot{col(0, ok2, -1), col(1, ok2, 0)}},
		"uncovered block": {K: 2, Columns: []CGColumnSnapshot{col(0, ok2, 0)}},
	}
	for name, snap := range cases {
		if st, err := RestoreCGState(snap); err == nil {
			t.Errorf("%s: restored to %v, want error", name, st)
		}
	}
}

// TestSolveCGCheckpointHook: OnState fires every CheckpointRounds rounds
// and every emitted snapshot is independently resumable — the property
// the serving layer's crash recovery rests on.
func TestSolveCGCheckpointHook(t *testing.T) {
	pr := smallProblem(t, 42, 5)
	var states []*CGState
	var iters []int
	first, err := SolveCG(pr, CGOptions{
		OnState: func(iter int, st *CGState) {
			iters = append(iters, iter)
			states = append(states, st)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rounds := len(first.Iterations)
	want := rounds / CheckpointRounds
	if want == 0 || len(states) != want {
		t.Fatalf("checkpointed %d times over %d rounds with period %d, want %d (and at least one)",
			len(states), rounds, CheckpointRounds, want)
	}
	for i, it := range iters {
		if (it+1)%CheckpointRounds != 0 {
			t.Errorf("checkpoint %d fired at round %d, want period-%d rounds only", i, it, CheckpointRounds)
		}
	}
	k := pr.Part.K()
	for i, st := range states {
		if !st.validFor(k) {
			t.Fatalf("checkpoint %d is not a valid resume state", i)
		}
		// Round-trip through the export path, as the store does.
		restored, err := RestoreCGState(st.Snapshot())
		if err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		res, err := SolveCG(pr, CGOptions{Resume: restored})
		if err != nil {
			t.Fatalf("resume from checkpoint %d: %v", i, err)
		}
		if math.Abs(res.ETDD-first.ETDD) > 1e-5*(1+first.ETDD) {
			t.Errorf("resume from checkpoint %d: ETDD %v vs uninterrupted %v", i, res.ETDD, first.ETDD)
		}
	}

}
