package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

// clockTick is Linux's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; it is 100 on every mainstream architecture.
const clockTick = 10 * time.Millisecond

// parseProcStat returns utime+stime from the contents of
// /proc/<pid>/stat. The comm field is parenthesised and may itself hold
// spaces and parentheses, so fields are counted from the last ')'.
func parseProcStat(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no comm field")
	}
	// After comm: state(3) ppid(4) … utime(14) stime(15).
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after comm", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// parseVmHWM returns the peak resident set size in bytes from the
// contents of /proc/<pid>/status.
func parseVmHWM(b []byte) (int64, error) {
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status VmHWM: %w", err)
		}
		return kb << 10, nil
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// hostCPU is the aggregate "cpu" line of /proc/stat, in jiffies.
type hostCPU struct{ steal, idle, total uint64 }

// parseHostStat reads the aggregate cpu line of /proc/stat: total is the
// sum of the first eight values (guest time is already counted in user
// and nice), idle is idle plus iowait, steal the eighth value.
func parseHostStat(b []byte) (hostCPU, error) {
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("proc stat: unexpected first line %q", line)
	}
	var h hostCPU
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("proc stat cpu field %d: %w", i, err)
		}
		h.total += v
		switch i {
		case 4, 5:
			h.idle += v
		case 8:
			h.steal = v
		}
	}
	return h, nil
}

func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	return parseHostStat(b)
}

// stealFrac is the share of host CPU time stolen between two readings.
func stealFrac(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// stealOfBusy is the share of the non-idle CPU time between two readings
// that was stolen: how often the guest lost a vCPU it wanted. Unlike
// stealFrac it does not grow with the guest's own load, which can only
// be stolen from while it runs.
func stealOfBusy(a, b hostCPU) float64 {
	busy := (b.total - a.total) - (b.idle - a.idle)
	if b.total <= a.total || busy == 0 {
		return 0
	}
	return float64(b.steal-a.steal) / float64(busy)
}

// serverFlags are the vlpserved flags a workload sets; every other flag
// keeps its default. The traced run derives its in-process
// server.Config from the same values.
type serverFlags struct {
	cache    int
	storeDir string
}

func (f serverFlags) args(addr string) []string {
	return []string{"-addr", addr, "-cache", strconv.Itoa(f.cache), "-store-dir", f.storeDir}
}

// serverProc is a running vlpserved child process.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
}

// startServer spawns bin with flags on a free loopback port and waits
// until /healthz answers 200. logPath receives the server's output.
func startServer(bin string, flags serverFlags, logPath string, procs int, client *http.Client) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, flags.args(addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs), "TMPDIR="+filepath.Dir(flags.storeDir))
	// The server must not outlive a benchmark process killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start vlpserved: %w", err)
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, client: client, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is reported through the log and the checks
		close(p.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(p.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("vlpserved exited during start-up (see %s)", logPath)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("vlpserved not healthy after 30s (see %s)", logPath)
		}
	}
}

// freeAddr returns a loopback address with a port free at call time.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// cpu returns the server's user+system CPU time so far.
func (p *serverProc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.pid()))
	if err != nil {
		return 0, err
	}
	return parseProcStat(b)
}

// peakRSS returns the server's VmHWM in bytes.
func (p *serverProc) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid()))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(b)
}

// stats fetches GET /stats.
func (p *serverProc) stats() (server.StatsSnapshot, error) {
	var s server.StatsSnapshot
	resp, err := p.client.Get(p.base + "/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/stats answered %d", resp.StatusCode)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// post sends body to path and returns the status and the full response
// body, read before returning so the caller can time completion.
func (p *serverProc) post(path string, body []byte) (int, []byte, error) {
	resp, err := p.client.Post(p.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// stop drains the server with SIGTERM and waits for it to exit, killing
// it if the drain takes longer than 30 seconds.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-p.exited:
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}
