package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one running serve subprocess.
type server struct {
	cmd   *exec.Cmd
	base  string        // http://127.0.0.1:PORT
	setup time.Duration // exec until /healthz answered 200
	done  chan struct{} // closed once the process has been waited for
	err   error         // Wait's result, valid after done
}

// procs tracks every server a run starts, so that no exit path leaves one
// behind.
type procs struct {
	mu   sync.Mutex
	live map[*server]bool
}

func (p *procs) add(s *server) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live == nil {
		p.live = map[*server]bool{}
	}
	p.live[s] = true
}

func (p *procs) remove(s *server) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.live, s)
}

// killAll SIGKILLs every server still running and waits for each to exit.
func (p *procs) killAll() {
	p.mu.Lock()
	var all []*server
	for s := range p.live {
		all = append(all, s)
	}
	p.mu.Unlock()
	for _, s := range all {
		s.kill()
		p.remove(s)
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs serve on dataDir with extra flags and waits until
// /healthz answers 200. The wait is the server's set-up time: the store
// opens and every persisted job is replayed before the listener starts.
func (p *procs) startServer(ctx context.Context, bin, dataDir, logPath string, flags ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-addr", addr, "-data-dir", dataDir, "-shutdown-grace", "60s"}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}

	probe := &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting serve: %w", err)
	}
	p.add(s)
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	deadline := start.Add(150 * time.Second)
	for {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				return s, nil
			}
		}
		select {
		case <-s.done:
			p.remove(s)
			return nil, fmt.Errorf("serve exited during start-up (%v); log: %s", s.err, tail(logPath))
		case <-ctx.Done():
			s.kill()
			p.remove(s)
			return nil, ctx.Err()
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			p.remove(s)
			return nil, fmt.Errorf("serve did not answer /healthz within 150s; log: %s", tail(logPath))
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop drains the server with SIGTERM and waits for it to exit; a server
// that does not exit in time is killed.
func (p *procs) stop(s *server) error {
	defer p.remove(s)
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		s.kill()
		return err
	}
	select {
	case <-s.done:
		return s.err
	case <-time.After(90 * time.Second):
		s.kill()
		return errors.New("serve did not drain within 90s")
	}
}

// crash SIGKILLs the server and waits for it to exit.
func (p *procs) crash(s *server) {
	s.kill()
	p.remove(s)
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already exited is fine
	<-s.done
}

// peakRSSMB reads the server's VmHWM (peak resident set) in MiB. With
// reset it then restarts the peak from the current resident set
// (/proc/PID/clear_refs), so the next read covers a new window.
func (s *server) peakRSSMB(reset bool) (float64, error) {
	pid := s.cmd.Process.Pid
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	mb := -1.0
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			mb = kb / 1024
		}
	}
	if mb < 0 {
		return 0, errors.New("no VmHWM in /proc status")
	}
	if reset {
		if err := os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0); err != nil {
			return 0, err
		}
	}
	return mb, nil
}

// tail returns the last lines of a log file, for error messages.
func tail(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}
