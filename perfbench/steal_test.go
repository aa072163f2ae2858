package main

import (
	"math"
	"sort"
	"testing"
	"time"
)

func TestQuietestTakesTies(t *testing.T) {
	exp := []float64{0.3, 0, 0.1, 0, math.NaN(), 0.1, 0.2, 0}
	got := quietest(exp, nil, 0.25)
	sort.Ints(got)
	// Two samples make a quarter of eight; all three zero-exposure
	// samples tie and are taken.
	want := []int{1, 3, 7}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if got := quietest(exp, nil, 0.5); len(got) != 5 {
		t.Errorf("half: got %v", got)
	}
}

func TestQuietWindows(t *testing.T) {
	t0 := time.Unix(0, 0)
	sec := time.Second
	tl := &timeline{readings: []reading{
		{at: t0, host: hostCPU{steal: 0, idle: 0, total: 0}, server: 0},
		{at: t0.Add(sec), host: hostCPU{steal: 0, idle: 100, total: 200}, server: 20 * time.Millisecond},
		{at: t0.Add(2 * sec), host: hostCPU{steal: 50, idle: 200, total: 400}, server: 80 * time.Millisecond},
		{at: t0.Add(3 * sec), host: hostCPU{steal: 50, idle: 300, total: 600}, server: 90 * time.Millisecond},
	}}
	samples := []sample{
		{done: t0.Add(100 * time.Millisecond), ok: true},
		{done: t0.Add(900 * time.Millisecond), ok: true},
		{done: t0.Add(1500 * time.Millisecond), ok: true},
		{done: t0.Add(2500 * time.Millisecond), ok: false},
		{done: t0.Add(2600 * time.Millisecond), ok: true},
	}
	// Windows 0 and 2 saw no steal and tie; together they hold four of
	// the five operations, three of them successful, and 30 ms of server
	// CPU. Window 1 (half its busy time stolen) is left out.
	picked, cpu := tl.quiet(samples, 0.25)
	sort.Ints(picked)
	want := []int{0, 1, 3, 4}
	if len(picked) != len(want) {
		t.Fatalf("picked %v, want %v", picked, want)
	}
	for i := range want {
		if picked[i] != want[i] {
			t.Fatalf("picked %v, want %v", picked, want)
		}
	}
	if cpu != 10*time.Millisecond {
		t.Errorf("CPU per op %v, want 10ms", cpu)
	}
	if _, cpu := tl.quiet(samples, 1); cpu != 22500*time.Microsecond {
		t.Errorf("whole-run CPU per op %v, want 22.5ms", cpu)
	}
}
