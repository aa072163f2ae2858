package main

import "testing"

func TestParseProcStatCommWithSpacesAndParens(t *testing.T) {
	// comm is "vlp (served) x)"; utime 250 and stime 50 jiffies follow.
	stat := "4242 (vlp (served) x)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 50 0 0 20 0 9 0 100 0 0\n"
	got, err := parseProcStat([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if want := 300 * clockTick; got != want {
		t.Errorf("cpu %v, want %v", got, want)
	}
	if _, err := parseProcStat([]byte("4242 (truncated")); err == nil {
		t.Error("stat without a closing paren parsed")
	}
	if _, err := parseProcStat([]byte("4242 (x) S 1 2")); err == nil {
		t.Error("short stat parsed")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tvlpserved\nVmPeak:\t  800000 kB\nVmHWM:\t   17408 kB\nVmRSS:\t   16000 kB\n"
	got, err := parseVmHWM([]byte(status))
	if err != nil {
		t.Fatal(err)
	}
	if got != 17408<<10 {
		t.Errorf("VmHWM %d bytes, want %d", got, 17408<<10)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("status without VmHWM parsed")
	}
}

func TestParseHostStatAndStealFrac(t *testing.T) {
	a, err := parseHostStat([]byte("cpu  100 0 50 800 10 0 0 40 0 0\ncpu0 1 2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if a.steal != 40 || a.idle != 810 || a.total != 1000 {
		t.Fatalf("parsed %+v", a)
	}
	// 100 jiffies pass: 50 idle, 30 running, 20 stolen.
	b := hostCPU{steal: 60, idle: 860, total: 1100}
	if got := stealFrac(a, b); got != 0.2 {
		t.Errorf("steal share %v, want 0.2", got)
	}
	if got := stealOfBusy(a, b); got != 0.4 {
		t.Errorf("steal share of busy time %v, want 0.4", got)
	}
	if stealFrac(b, b) != 0 || stealOfBusy(b, b) != 0 {
		t.Error("steal share over no time is not 0")
	}
}
