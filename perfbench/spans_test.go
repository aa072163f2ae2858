package main

import (
	"testing"
	"time"
)

func TestSelfTimesOverlappingChildren(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100 * us},
		// Overlapping children cover [10, 50]; the third reaches past
		// the parent and counts only up to 100.
		{Name: "a", Parent: 0, Start: 10 * us, End: 30 * us},
		{Name: "b", Parent: 0, Start: 20 * us, End: 50 * us},
		{Name: "c", Parent: 0, Start: 90 * us, End: 120 * us},
		// A grandchild is subtracted from its own parent only.
		{Name: "b1", Parent: 2, Start: 25 * us, End: 35 * us},
		// A sibling at the root does not touch root's self time.
		{Name: "sib", Parent: -1, Start: 0, End: 40 * us},
	}
	self := selfTimes(spans)
	want := []time.Duration{50 * us, 20 * us, 20 * us, 30 * us, 10 * us, 40 * us}
	for i := range spans {
		if self[i] != want[i] {
			t.Errorf("%s self %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}

func TestSelfTimesNestedDuplicates(t *testing.T) {
	spans := []span{
		{Name: "p", Parent: -1, Start: 0, End: 10},
		{Name: "x", Parent: 0, Start: 2, End: 6},
		{Name: "y", Parent: 0, Start: 2, End: 6},
		{Name: "z", Parent: 0, Start: 6, End: 8},
	}
	if got := selfTimes(spans)[0]; got != 4 {
		t.Errorf("self %v, want 4", got)
	}
}
