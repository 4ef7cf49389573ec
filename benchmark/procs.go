package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sandbox owns everything a run leaves outside its own memory: the work
// directory (snapshots, WALs, daemon logs) and the daemon processes.
// close reaps all of it, and main reaches close on every exit path, so a
// failed run leaks neither a semproxd nor a directory.
type sandbox struct {
	dir   string
	procs []*proc
	seq   int // bring-up directories made so far
}

func newSandbox(root string) (*sandbox, error) {
	base := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &sandbox{dir: dir}, nil
}

// subdir makes a fresh numbered directory for one bring-up.
func (s *sandbox) subdir(prefix string) (string, error) {
	s.seq++
	dir := filepath.Join(s.dir, fmt.Sprintf("%s-%d", prefix, s.seq))
	return dir, os.MkdirAll(dir, 0o755)
}

func (s *sandbox) close() {
	for _, p := range s.procs {
		p.stop()
	}
	s.procs = nil
	os.RemoveAll(s.dir)
}

// proc is one daemon. Its stderr (request log included — the daemons run
// with default flags) goes to a file in the work directory.
type proc struct {
	name   string
	cmd    *exec.Cmd
	log    string
	exited chan struct{} // closed once Wait returned
}

// start execs bin with args. The child is killed if this process dies
// first (Pdeathsig), so even a SIGKILLed benchmark leaves no daemon.
func (s *sandbox) start(name, logDir, bin string, args ...string) (*proc, error) {
	logPath := filepath.Join(logDir, name+".log")
	// A scratch log stream, not a durable file: plain open, no atomicfile.
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logPath, exited: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // exit status is read from ProcessState where it matters
		close(p.exited)
	}()
	s.procs = append(s.procs, p)
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// stop asks for a graceful shutdown, then kills; returns once the process
// has been waited for. Safe to call twice.
func (p *proc) stop() {
	if !p.alive() {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	select {
	case <-p.exited:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck // already gone is fine
		<-p.exited
	}
}

// logTail returns the last lines of the daemon's log for an error report.
func (p *proc) logTail() string {
	b, err := os.ReadFile(p.log)
	if err != nil {
		return ""
	}
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return string(bytes.TrimSpace(b))
}

// freeAddr reserves a loopback port by binding and releasing it; the
// daemons take -addr, not a listener, so the gap is unavoidable (and
// harmless on a box where nothing else is binding).
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// buildBinaries compiles the real daemons from the checkout into
// .bench_build/bin, returning how long `go build` took (sub-second once
// the build cache is warm).
func buildBinaries(ctx context.Context, root string) (bins string, took time.Duration, err error) {
	bins = filepath.Join(root, ".bench_build", "bin")
	if err := os.MkdirAll(bins, 0o755); err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bins+string(os.PathSeparator), "./cmd/semproxd", "./cmd/semproxy")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build of the daemons failed: %w\n%s", err, out)
	}
	return bins, time.Since(t0), nil
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
// It is 100 on every Linux configuration Go supports; reading it properly
// needs cgo (sysconf), which this module avoids.
const clockTick = 100

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields count from
	// the closing parenthesis. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed times in /proc/%d/stat", pid)
	}
	return float64(ut+st) / clockTick, nil
}

// rssMB is the process's resident set right now (VmRSS).
func rssMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmRSS in /proc/%d/status", pid)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}

// selfCPUSeconds is this (generator) process's user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
