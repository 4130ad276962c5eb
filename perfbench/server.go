package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverCPU is the CPU topkd is pinned to; run.sh pins the benchmark
// itself to the other one.
const serverCPU = 0

// server is one topkd process pinned to serverCPU.
type server struct {
	cmd  *exec.Cmd
	addr string
	hc   *http.Client
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer boots topkd and waits until /healthz answers. It returns
// the time from process start to ready.
func startServer(bin, dataDir string) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-c", strconv.Itoa(serverCPU), bin, "-addr", addr, "-lazy=false"}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir, "-fsync", "always")
	}
	s := &server{addr: addr, hc: &http.Client{Timeout: 30 * time.Second}}
	s.cmd = exec.Command("taskset", args...)
	// topkd dies with the benchmark, even when the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.cmd.Stderr = os.Stderr // stdout stays on the null device
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start topkd: %w", err)
	}
	// Poll without sleeping: the benchmark has its own CPU, and a timer
	// sleep can wake milliseconds late on a busy VM, which would be timed
	// as set-up. A refused connect is cheap; the HTTP client, which
	// allocates on every try, waits until topkd listens.
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			break
		}
		if time.Since(t0) > 60*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("topkd on %s not listening after 60s: %v", addr, err)
		}
	}
	for {
		resp, err := s.hc.Get("http://" + addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 60*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("topkd on %s not ready after 60s: %v", addr, err)
		}
	}
}

// createTenants PUTs every tenant's config.
func (s *server) createTenants(w Workload) error {
	for i := 0; i < w.Tenants; i++ {
		body := fmt.Sprintf(`{"nodes":%d,"k":%d,"eps":%q,"monitor":%q,"seed":%d}`,
			w.Nodes, w.K, w.Eps, w.Monitor, tenantSeed(i))
		req, err := http.NewRequest(http.MethodPut, "http://"+s.addr+"/v1/"+tenantName(i), strings.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := s.hc.Do(req)
		if err != nil {
			return fmt.Errorf("create %s: %w", tenantName(i), err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("create %s: status %d", tenantName(i), resp.StatusCode)
		}
	}
	return nil
}

// get returns a read route's body, requiring 200.
func (s *server) get(path string) ([]byte, error) {
	resp, err := s.hc.Get("http://" + s.addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, b)
	}
	return b, nil
}

// scrape collects every tenant's /topk and /cost bodies through get.
func scrape(tenants int, get func(path string) ([]byte, error)) ([][2][]byte, error) {
	out := make([][2][]byte, tenants)
	for i := range out {
		var err error
		if out[i][0], err = get("/v1/" + tenantName(i) + "/topk"); err != nil {
			return nil, err
		}
		if out[i][1], err = get("/v1/" + tenantName(i) + "/cost"); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// cpu reads the process's user+system time from /proc/<pid>/stat.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, err
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, err
	}
	const hz = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / hz, nil
}

// peakRSS reads VmHWM from /proc/<pid>/status, in MiB.
func peakRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// stop ends topkd gracefully (SIGTERM drains, fsyncs and closes every
// log) and waits for it; a server that does not exit in time is killed.
func (s *server) stop() error {
	if s == nil || s.cmd.Process == nil {
		return nil
	}
	s.hc.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-done
		return fmt.Errorf("topkd did not exit within 20s of SIGTERM")
	}
}
