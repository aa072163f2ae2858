package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The host this benchmark runs on is a shared VM: other tenants take
// its vCPUs away ("steal", in /proc/stat) in bursts that come and go
// within seconds and range from none to a quarter of the machine. A
// stolen slice inflates the latency of the requests it hits and the CPU
// time charged to the server, so the timed end-to-end figures are taken
// over the least-stolen windows of each run, and the whole-run figures
// go into the stamp. Whole windows are chosen, never single operations:
// an operation's own CPU demand raises its exposure to steal, so picking
// operations by exposure would favour the cheap ones, while every window
// of a fixed-rate schedule carries about the same load.

// window is the unit of that selection: long enough that windows carry
// about the same offered load, short enough that steal bursts leave some
// of a run's windows quiet. A window's steal is stealOfBusy, which does
// not rise with the load the window happened to carry.
const window = 500 * time.Millisecond

// reading is one sample of host and server CPU counters.
type reading struct {
	at     time.Time
	host   hostCPU
	server time.Duration
}

// timeline is the series of readings taken, one per window, during the
// measured phase.
type timeline struct {
	mu       sync.Mutex
	srvCPU   func() (time.Duration, error)
	readings []reading
	err      error
}

// mark appends a reading; the first failure sticks.
func (tl *timeline) mark() {
	h, err := readHostCPU()
	var cpu time.Duration
	if err == nil {
		cpu, err = tl.srvCPU()
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if err != nil {
		if tl.err == nil {
			tl.err = err
		}
		return
	}
	tl.readings = append(tl.readings, reading{at: time.Now(), host: h, server: cpu})
}

// tick marks every window until stop closes.
func (tl *timeline) tick(stop <-chan struct{}) {
	t := time.NewTicker(window)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			tl.mark()
		}
	}
}

// quietest orders the items with a known exposure by rising exposure and
// returns the shortest prefix whose weights reach share of the total
// weight, extended by every further item exposed no more than its last
// one. weight nil counts each item once.
func quietest(exposure, weight []float64, share float64) []int {
	w := func(i int) float64 {
		if weight == nil {
			return 1
		}
		return weight[i]
	}
	var order []int
	total := 0.0
	for i, e := range exposure {
		total += w(i)
		if !math.IsNaN(e) {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return exposure[order[a]] < exposure[order[b]] })
	taken, n := 0.0, 0
	for ; n < len(order); n++ {
		if n > 0 && taken >= share*total && exposure[order[n]] > exposure[order[n-1]] {
			break
		}
		taken += w(order[n])
	}
	return order[:n]
}

// quiet chooses the least-stolen windows with quietest, each weighted
// by the operations that completed in it. It returns the indexes of
// those operations and the server CPU per successful one over the
// chosen windows.
func (tl *timeline) quiet(samples []sample, share float64) (picked []int, cpuPerOp time.Duration) {
	r := tl.readings
	if len(r) < 2 {
		return nil, 0
	}
	byWindow := make([][]int, len(r)-1)
	for i, s := range samples {
		k := sort.Search(len(r), func(j int) bool { return !r[j].at.Before(s.done) }) - 1
		if k >= 0 && k < len(byWindow) {
			byWindow[k] = append(byWindow[k], i)
		}
	}
	steal := make([]float64, len(byWindow))
	weight := make([]float64, len(byWindow))
	for k, ops := range byWindow {
		steal[k] = math.NaN()
		if len(ops) > 0 {
			steal[k] = stealOfBusy(r[k].host, r[k+1].host)
			weight[k] = float64(len(ops))
		}
	}
	var cpu time.Duration
	ok := 0
	for _, k := range quietest(steal, weight, share) {
		cpu += r[k+1].server - r[k].server
		for _, i := range byWindow[k] {
			picked = append(picked, i)
			if samples[i].ok {
				ok++
			}
		}
	}
	if ok == 0 {
		return picked, 0
	}
	return picked, cpu / time.Duration(ok)
}
