package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// member is one vlpserved child process under harness control.
type member struct {
	index  int
	name   string
	addr   string
	cmd    *exec.Cmd
	client *http.Client
	// paused and killed are touched only by the runner goroutine; the
	// driver's request goroutines never read them.
	paused bool
	killed bool
}

// freeAddr reserves a loopback listen address for a child. The port is
// released before the child binds it — a benign race while the harness
// owns the machine's ephemeral range for milliseconds.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// startMember spawns one fleet member with the fault control surface
// enabled, so the harness can re-arm faults per phase over HTTP.
func startMember(cfg *Config, index int) (*member, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("chaos: reserve addr: %w", err)
	}
	name := fmt.Sprintf("chaos-m%d", index)
	cmd := exec.Command(cfg.Bin,
		"-addr", addr,
		"-store-dir", cfg.StoreDir,
		"-fleet",
		"-instance", name,
		"-advertise", "http://"+addr,
		"-lease-ttl", cfg.TTL.String(),
		"-fleet-poll", cfg.Poll.String(),
	)
	cmd.Env = append(os.Environ(), "VLP_FAULT_CTL=1")
	cmd.Stderr = cfg.ChildLog
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("chaos: start %s: %w", name, err)
	}
	return &member{
		index:  index,
		name:   name,
		addr:   addr,
		cmd:    cmd,
		client: &http.Client{Timeout: cfg.RequestTimeout},
	}, nil
}

func (m *member) url(path string) string { return "http://" + m.addr + path }

func (m *member) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := m.client.Get(m.url("/healthz"))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("chaos: %s never became healthy on %s", m.name, m.addr)
}

// rawStats fetches and decodes GET /stats.
func (m *member) rawStats() (map[string]interface{}, error) {
	resp, err := m.client.Get(m.url("/stats"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var raw map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// stat fetches one field of GET /stats (nil when absent).
func (m *member) stat(key string) (interface{}, error) {
	raw, err := m.rawStats()
	return raw[key], err
}

// armFault POSTs a faultinject spec to the member's control surface.
func (m *member) armFault(spec string) error {
	resp, err := m.client.Post(m.url("/debug/faults"), "text/plain", strings.NewReader(spec))
	if err != nil {
		return fmt.Errorf("chaos: arm %q on %s: %w", spec, m.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("chaos: arm %q on %s: status %d: %s", spec, m.name, resp.StatusCode, body)
	}
	return nil
}

// clearFaults resets every armed fault on the member.
func (m *member) clearFaults() error {
	req, err := http.NewRequest(http.MethodDelete, m.url("/debug/faults"), nil)
	if err != nil {
		return err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return fmt.Errorf("chaos: clear faults on %s: %w", m.name, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("chaos: clear faults on %s: status %d", m.name, resp.StatusCode)
	}
	return nil
}

// pause SIGSTOPs the child: the process lives (sockets accept, lease
// record stays on disk) but cannot renew its lease or answer requests.
func (m *member) pause() error {
	if err := m.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		return fmt.Errorf("chaos: pause %s: %w", m.name, err)
	}
	m.paused = true
	return nil
}

func (m *member) resume() error {
	if err := m.cmd.Process.Signal(syscall.SIGCONT); err != nil {
		return fmt.Errorf("chaos: resume %s: %w", m.name, err)
	}
	m.paused = false
	return nil
}

// kill SIGKILLs and reaps the child; safe to call more than once.
func (m *member) kill() {
	if m.killed || m.cmd.Process == nil {
		return
	}
	m.killed = true
	// A paused process cannot die until it is resumed.
	_ = m.cmd.Process.Signal(syscall.SIGCONT)
	_ = m.cmd.Process.Signal(syscall.SIGKILL)
	_, _ = m.cmd.Process.Wait()
}
