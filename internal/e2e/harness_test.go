// Package e2e proves the programs as processes: real semprox, semproxd,
// semproxy and semproxctl binaries, the daemons on kernel-assigned
// loopback ports, driven through the client package and net/http.
// Everything a test needs is under its own t.TempDir(), so any number of
// copies run at once. `go test -short` builds nothing and skips every case.
package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/api"
	"repro/client"
)

const (
	semprox    = "semprox"
	semproxd   = "semproxd"
	semproxy   = "semproxy"
	semproxctl = "semproxctl"

	// waitTimeout bounds every wait; the slowest thing waited for is an
	// election (monitor defaults: 3 probes 500 ms apart) on a loaded box.
	waitTimeout = 60 * time.Second
	class       = "college"
)

var (
	binDir   string // the four binaries; empty under -short
	seedSnap string // the one trained engine every daemon boots from

	hc = &http.Client{Timeout: 10 * time.Second}
)

func TestMain(m *testing.M) {
	flag.Parse()
	os.Exit(runMain(m))
}

// runMain builds the binaries and trains the one engine with the offline
// program, semprox -save.
func runMain(m *testing.M) int {
	if testing.Short() {
		return m.Run()
	}
	dir, err := os.MkdirTemp("", "semprox-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	build := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"./cmd/"+semprox, "./cmd/"+semproxd, "./cmd/"+semproxy, "./cmd/"+semproxctl)
	build.Dir = filepath.Join("..", "..")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build of the binaries failed: %v\n%s", err, out)
		return 1
	}
	binDir = dir
	seedSnap = filepath.Join(dir, "seed.snap")
	seed := exec.Command(filepath.Join(dir, semprox),
		"-dataset", "linkedin", "-users", "200", "-classes", class, "-save", seedSnap)
	if out, err := seed.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "%v: %v\n%s", seed.Args, err, out)
		return 1
	}
	return m.Run()
}

// logDir is where daemon logs go: SMOKE_LOG_DIR when set (CI uploads it
// after a failure), else the given scratch directory.
func logDir(scratch string) string {
	if d := os.Getenv("SMOKE_LOG_DIR"); d != "" {
		if err := os.MkdirAll(d, 0o755); err == nil {
			return d
		}
	}
	return scratch
}

// poll is the one wait loop: cond every 25 ms until it holds or d passes.
func poll(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(25 * time.Millisecond)
	}
	return true
}

// waitFor fails the test, with the log tails of the daemons involved,
// unless cond holds within waitTimeout.
func waitFor(t *testing.T, what string, cond func() bool, procs ...*proc) {
	t.Helper()
	if poll(waitTimeout, cond) {
		return
	}
	var tails strings.Builder
	for _, p := range procs {
		fmt.Fprintf(&tails, "\n---- %s\n%s", p.log, p.logTail())
	}
	t.Fatalf("timeout waiting for %s%s", what, tails.String())
}

// proc is one daemon. Its stderr (request log included) is appended to a
// file, which is what the log-line assertions read.
type proc struct {
	cmd    *exec.Cmd
	addr   string // host:port it serves on
	log    string
	exited chan struct{} // closed once Wait returned
}

func (p *proc) url() string { return "http://" + p.addr }

func (p *proc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// kill9 is the crash: SIGKILL, reaped before it returns.
func (p *proc) kill9() {
	p.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-p.exited
}

// stop asks for a graceful shutdown, then kills; returns once the process
// has been waited for. Safe to call twice.
func (p *proc) stop() {
	if !p.alive() {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	if !poll(5*time.Second, func() bool { return !p.alive() }) {
		p.kill9()
	}
}

func (p *proc) logText() string {
	b, _ := os.ReadFile(p.log)
	return string(b)
}

func (p *proc) logTail() string {
	s := p.logText()
	if len(s) > 4096 {
		s = s[len(s)-4096:]
	}
	return strings.TrimSpace(s)
}

// freeAddr reserves a loopback port by binding and releasing it: the
// daemons take -addr, not a listener, so the gap is unavoidable, and
// startDaemon's retry covers the case where something else takes it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// freeAddr is for a daemon whose address someone must know before it
// starts: its peers, or its own -advertise.
func (e *env) freeAddr() string {
	e.t.Helper()
	addr, err := freeAddr()
	if err != nil {
		e.t.Fatal(err)
	}
	return addr
}

// startDaemon runs bin with -addr and args and waits for /v1/healthz. An
// empty addr takes a fresh kernel-assigned port per attempt; a given one
// (peers were told it, or a zombie reclaims its old port) is retried as
// is. A child that exits before it answers — it lost the port between
// freeAddr and its own bind — is restarted, three attempts in all; one
// that stays up without answering is a failure at once. The child dies
// with this process (Pdeathsig), so a killed test run leaves no daemon.
func startDaemon(logPath, bin, addr string, args ...string) (*proc, error) {
	for attempt := 1; ; attempt++ {
		a := addr
		if a == "" {
			var err error
			if a, err = freeAddr(); err != nil {
				return nil, err
			}
		}
		// A scratch log stream, not a durable file: plain open.
		logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(filepath.Join(binDir, bin), append([]string{"-addr", a}, args...)...)
		cmd.Stdout, cmd.Stderr = logf, logf
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		err = cmd.Start()
		logf.Close() // the child holds its own descriptor
		if err != nil {
			return nil, fmt.Errorf("starting %s: %w", bin, err)
		}
		p := &proc{cmd: cmd, addr: a, log: logPath, exited: make(chan struct{})}
		go func() {
			cmd.Wait() //nolint:errcheck // exit status is read from ProcessState where it matters
			close(p.exited)
		}()
		healthy := func() bool {
			resp, err := hc.Get(p.url() + api.PathHealthz)
			if err != nil {
				return false
			}
			resp.Body.Close()
			return resp.StatusCode == http.StatusOK
		}
		if poll(waitTimeout, func() bool { return healthy() || !p.alive() }) && p.alive() {
			return p, nil
		}
		if p.alive() {
			p.kill9()
			return nil, fmt.Errorf("%s %v stayed up but never answered %s\n%s", bin, args, api.PathHealthz, p.logTail())
		}
		if attempt == 3 {
			return nil, fmt.Errorf("%s %v exited before it was healthy, %d attempts\n%s", bin, args, attempt, p.logTail())
		}
	}
}

// env is one test's processes and directories.
type env struct {
	t    *testing.T
	dir  string // WALs and state directories
	logs string
}

func newEnv(t *testing.T) *env {
	t.Helper()
	if binDir == "" {
		t.Skip("-short: the daemons are not built")
	}
	t.Parallel()
	dir := t.TempDir()
	return &env{t: t, dir: dir, logs: logDir(dir)}
}

func (e *env) path(name string) string { return filepath.Join(e.dir, name) }

// start brings one daemon up, named for its log file, and reaps it when
// the test ends.
func (e *env) start(name, bin, addr string, args ...string) *proc {
	e.t.Helper()
	logName := strings.ReplaceAll(e.t.Name(), "/", "_") + "_" + name + ".log"
	p, err := startDaemon(filepath.Join(e.logs, logName), bin, addr, args...)
	if err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(p.stop)
	return p
}

// primary boots a durable primary from the seed snapshot.
func (e *env) primary(extra ...string) *proc {
	e.t.Helper()
	return e.start("primary", semproxd, "", append([]string{"-snapshot", seedSnap, "-wal", e.path("wal")}, extra...)...)
}

// ctl runs semproxctl once.
func (e *env) ctl(args ...string) (stdout, stderr string, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(binDir, semproxctl), args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	return out.String(), errb.String(), err
}

// ctlJSON runs semproxctl, requires success and decodes its stdout.
func (e *env) ctlJSON(into any, args ...string) (stderr string) {
	e.t.Helper()
	stdout, stderr, err := e.ctl(args...)
	if err != nil {
		e.t.Fatalf("semproxctl %v: %v\n%s", args, err, stderr)
	}
	if err := json.Unmarshal([]byte(stdout), into); err != nil {
		e.t.Fatalf("semproxctl %v printed no %T: %v\n%s", args, into, err, stdout)
	}
	return stderr
}

// ready is one /v1/readyz observation; the zero value when unreachable.
func ready(p *proc) api.ReadyResponse {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c := client.New(p.url(), hc)
	c.Retries = 0
	r, _ := c.Ready(ctx)
	return r
}

// waitReady waits until every daemon reports ready at lsn or later.
func waitReady(t *testing.T, lsn uint64, procs ...*proc) {
	t.Helper()
	for _, p := range procs {
		waitFor(t, fmt.Sprintf("%s ready at LSN %d", p.url(), lsn), func() bool {
			r := ready(p)
			return r.Ready() && r.LSN >= lsn
		}, p)
	}
}

// get is one GET; any transport error or non-200 status is returned.
func get(url string, header ...string) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp, body.Bytes(), fmt.Errorf("GET %s: %s: %s", url, resp.Status, body.Bytes())
	}
	return resp, body.Bytes(), nil
}

func queryURL(p *proc, anchor string, k int) string {
	return fmt.Sprintf("%s%s?class=%s&query=%s&k=%d", p.url(), api.PathQuery, class, anchor, k)
}

// update applies one new user linked to the given existing nodes.
func update(c interface {
	Update(context.Context, api.UpdateRequest) (api.UpdateResponse, error)
}, timeout time.Duration, name string, linkTo ...string) (api.UpdateResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return c.Update(ctx, userDelta(name, linkTo...))
}

func userDelta(name string, linkTo ...string) api.UpdateRequest {
	req := api.UpdateRequest{Nodes: []api.UpdateNode{{Type: "user", Name: name}}}
	for _, v := range linkTo {
		req.Edges = append(req.Edges, api.UpdateEdge{U: name, V: v})
	}
	return req
}

func deltaJSON(t *testing.T, name string, linkTo ...string) string {
	t.Helper()
	b, err := json.Marshal(userDelta(name, linkTo...))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metric returns the value of the first sample of the exposition at p
// whose series starts with prefix (the exact series when prefix carries
// the full label set), and whether there is one.
func metric(t *testing.T, p *proc, prefix string) (float64, bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	expo, err := client.New(p.url(), hc).Metrics(ctx)
	if err != nil {
		t.Fatalf("scraping %s: %v", p.url(), err)
	}
	for _, line := range strings.Split(expo, "\n") {
		if strings.HasPrefix(line, prefix) {
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("sample %q of %s: %v", line, p.url(), err)
			}
			return v, true
		}
	}
	return 0, false
}
