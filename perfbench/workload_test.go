package main

import (
	"bytes"
	"testing"
)

func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := buildInputs(w, 7, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := buildInputs(w, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.part.K() != w.tier.k {
			t.Errorf("%s: K %d, want %d", w.name, a.part.K(), w.tier.k)
		}
		if len(a.digests) != len(b.digests) || len(a.plan) != len(b.plan) {
			t.Fatalf("%s: sizes differ", w.name)
		}
		for i := range a.digests {
			if a.digests[i] != b.digests[i] || !bytes.Equal(a.bodies[i], b.bodies[i]) {
				t.Errorf("%s: spec %d differs between identical seeds", w.name, i)
			}
			if got := a.specs[i].Digest(); got != a.digests[i] {
				t.Errorf("%s: spec %d digest %s, recorded %s", w.name, i, got, a.digests[i])
			}
		}
		for i := range a.plan {
			if a.plan[i].due != b.plan[i].due || a.plan[i].spec != b.plan[i].spec || !bytes.Equal(a.plan[i].body, b.plan[i].body) {
				t.Errorf("%s: request %d differs between identical seeds", w.name, i)
			}
		}
		c, err := buildInputs(w, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if c.digests[0] == a.digests[0] {
			t.Errorf("%s: seeds 7 and 8 give the same first digest", w.name)
		}
	}
}

func TestSolveColdDigestsDistinct(t *testing.T) {
	w, err := workloadByName("solve-cold")
	if err != nil {
		t.Fatal(err)
	}
	in, err := buildInputs(w, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{in.warmDigest: true}
	for i, d := range in.digests {
		if seen[d] {
			t.Fatalf("solve-cold spec %d repeats a digest", i)
		}
		seen[d] = true
	}
	if len(in.plan) != 0 {
		t.Errorf("solve-cold has an open-loop plan")
	}
}

func TestServingPlanShape(t *testing.T) {
	w, err := workloadByName("serve-hot")
	if err != nil {
		t.Fatal(err)
	}
	in, err := buildInputs(w, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(2 * w.rate); len(in.plan) != want {
		t.Fatalf("%d arrivals, want %d", len(in.plan), want)
	}
	for i, a := range in.plan {
		if a.spec < 0 || a.spec >= w.specs || a.locs != w.locs {
			t.Fatalf("arrival %d: spec %d locs %d", i, a.spec, a.locs)
		}
		if i > 0 && a.due <= in.plan[i-1].due {
			t.Fatalf("arrival %d not after its predecessor", i)
		}
	}
}
