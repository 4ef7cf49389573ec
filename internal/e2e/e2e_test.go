package e2e

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/proxy"
)

// TestReplication: a durable primary and a follower, live updates through
// semproxctl, the follower catches up and answers with the same bytes.
func TestReplication(t *testing.T) {
	e := newEnv(t)
	p := e.primary()
	f := e.start("follower", semproxd, "", "-follow", p.url())

	for i := 1; i <= 3; i++ {
		var resp api.UpdateResponse
		e.ctlJSON(&resp, "-primary", p.url(), "-update",
			deltaJSON(t, fmt.Sprintf("smoke-%d", i), "user-1", "user-2"))
		if resp.LSN != uint64(i) || resp.NodesAdded != 1 || resp.EdgesAdded != 2 {
			t.Fatalf("update %d answered %+v", i, resp)
		}
	}
	waitReady(t, 3, f)

	for _, q := range []string{"user-1", "user-7", "smoke-2"} {
		_, want, err := get(queryURL(p, q, 10))
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := get(queryURL(f, q, 10))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("query %s diverged\nprimary:  %s\nfollower: %s", q, want, got)
		}
	}
	var ps, fs api.StatsResponse
	e.ctlJSON(&ps, "-primary", p.url(), "-stats")
	e.ctlJSON(&fs, "-primary", f.url(), "-stats")
	if r := ready(f); ps.LSN != 3 || fs.LSN != 3 || r.Lag != 0 || r.Role != api.RoleFollower {
		t.Fatalf("lsn primary=%d follower=%d, follower readyz %+v; want 3/3, lag 0", ps.LSN, fs.LSN, r)
	}

	_, stderr, err := e.ctl("-primary", f.url(), "-update", deltaJSON(t, "x"))
	if err == nil || !strings.Contains(stderr, api.CodeNotPrimary) {
		t.Fatalf("update on a follower: err %v, stderr %q; want a %s refusal", err, stderr, api.CodeNotPrimary)
	}
}

// TestRouting: semproxctl's routed reads spread over the follower, stay
// byte-identical, and survive kill -9 of the primary; writes then fail.
func TestRouting(t *testing.T) {
	e := newEnv(t)
	p := e.primary()
	f := e.start("follower", semproxd, "", "-follow", p.url())
	routed := []string{"-primary", p.url(), "-followers", f.url()}

	for i := 1; i <= 3; i++ {
		var resp api.UpdateResponse
		e.ctlJSON(&resp, append(routed, "-update", deltaJSON(t, fmt.Sprintf("routed-%d", i), "user-1"))...)
	}
	type replicaState struct {
		URL   string
		State *api.ReadyResponse
	}
	var states []replicaState
	waitFor(t, "semproxctl -ready to exit 0 with the follower at LSN 3", func() bool {
		stdout, _, err := e.ctl(append(routed, "-ready")...)
		return err == nil && json.Unmarshal([]byte(stdout), &states) == nil &&
			len(states) == 2 && states[1].State != nil && states[1].State.LSN == 3
	}, p, f)
	if states[0].URL != p.url() || states[0].State.Role != api.RolePrimary || states[1].URL != f.url() {
		t.Fatalf("-ready printed %+v", states)
	}

	read := append(routed, "-class", class, "-query", "routed-2", "-k", "5")
	before, stderr, err := e.ctl(append(read, "-n", "40", "-counts")...)
	if err != nil {
		t.Fatalf("40 routed reads: %v\n%s", err, stderr)
	}
	if !strings.Contains(stderr, "1/1 followers in rotation") || !strings.Contains(stderr, "reads <- "+f.url()) {
		t.Fatalf("the follower never served: -counts printed\n%s", stderr)
	}
	var viaCtl, direct api.QueryResponse
	if err := json.Unmarshal([]byte(before), &viaCtl); err != nil {
		t.Fatalf("-query printed %q: %v", before, err)
	}
	_, body, err := get(queryURL(f, "routed-2", 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &direct); err != nil || !reflect.DeepEqual(viaCtl, direct) || len(direct.Results) == 0 {
		t.Fatalf("routed answer %+v, the follower's own %+v (%v)", viaCtl, direct, err)
	}

	p.kill9()
	after, stderr, err := e.ctl(append(read, "-n", "20")...)
	if err != nil {
		t.Fatalf("routed reads after the primary died: %v\n%s\n---- follower\n%s", err, stderr, f.logTail())
	}
	if after != before {
		t.Fatalf("answers changed across the primary's death\nbefore: %s\nafter:  %s", before, after)
	}
	if _, _, err := e.ctl("-primary", p.url(), "-update", deltaJSON(t, "orphan")); err == nil {
		t.Fatal("an update succeeded with no primary alive")
	}
}

// TestFailover: kill -9 a synchronous primary under a live routed writer.
// One of two durable followers must win the election at term 2 and hold
// every acked write; the old primary, revived from its own snapshot and
// log, is a term-1 zombie that a term-2 follower fences and whose writes
// are never acked.
func TestFailover(t *testing.T) {
	e := newEnv(t)
	p := e.primary("-ack-replicas", "1")
	addrs := [2]string{e.freeAddr(), e.freeAddr()}
	state := [2]string{e.path("a"), e.path("b")}
	var nodes [2]*proc
	for i, name := range []string{"a", "b"} {
		nodes[i] = e.start(name, semproxd, addrs[i], "-follow", p.url(), "-state", state[i],
			"-advertise", "http://"+addrs[i], "-peers", "http://"+addrs[1-i], "-ack-replicas", "1")
	}
	waitReady(t, 0, nodes[:]...)

	// The writer retries the SAME marker until it is acked: the engine
	// deduplicates node additions, so a lost-ack retry cannot fork state.
	router := client.NewRouter(p.url(), []string{nodes[0].url(), nodes[1].url()}, nil)
	var (
		mu      sync.Mutex
		acked   []string
		lastErr error
	)
	count := func() int { mu.Lock(); defer mu.Unlock(); return len(acked) }
	ackedAtLeast := func(n int) func() bool { return func() bool { return count() >= n } }
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; ; {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("mark-%d", i)
			_, err := update(router, 10*time.Second, name, "user-1")
			mu.Lock()
			if err != nil {
				lastErr = err
			} else {
				acked = append(acked, name)
				i++
			}
			mu.Unlock()
			time.Sleep(50 * time.Millisecond)
		}
	}()
	stopWriter := sync.OnceFunc(func() { close(stop); <-done })
	defer stopWriter()

	waitFor(t, "5 acked writes", ackedAtLeast(5), p, nodes[0], nodes[1])
	preKill := count()
	p.kill9()
	killedAt := time.Now()
	waitFor(t, "a write acked after kill -9 of the primary", ackedAtLeast(preKill+1), nodes[0], nodes[1])
	t.Logf("writes restored %d ms after kill -9 (%d acked before it)", time.Since(killedAt).Milliseconds(), preKill)
	waitFor(t, "5 more acked writes on the promoted primary", ackedAtLeast(preKill+5), nodes[0], nodes[1])
	stopWriter()
	t.Logf("%d acked writes; the writer's last error: %v", len(acked), lastErr)

	winner := -1
	for i, n := range nodes {
		if ready(n).Role == api.RolePrimary {
			if winner >= 0 {
				t.Fatal("both followers claim the primary role")
			}
			winner = i
		}
	}
	if winner < 0 {
		t.Fatal("neither follower claims the primary role")
	}
	promoted, loser := nodes[winner], nodes[1-winner]
	if r := ready(promoted); r.Term != 2 || !r.Ready() {
		t.Fatalf("promoted primary's readyz = %+v, want ready at term 2", r)
	}
	if !strings.Contains(promoted.logText(), "promoted: accepting writes at term 2") {
		t.Fatalf("no promotion line in the winner's log\n%s", promoted.logTail())
	}
	ctx := context.Background()
	pc := client.New(promoted.url(), hc)
	for _, name := range acked {
		if _, err := pc.Query(ctx, class, name, 3); err != nil {
			t.Fatalf("acked write %s is not on the promoted primary: %v", name, err)
		}
	}

	// The loser is stopped first so it can be restarted against the
	// zombie; without its monitor nothing steers it back.
	loserLSN := ready(loser).LSN
	loser.stop()
	zombie := e.start("zombie", semproxd, p.addr, "-snapshot", seedSnap, "-wal", e.path("wal"), "-ack-replicas", "1")
	if r := ready(zombie); r.Role != api.RolePrimary || r.Term > 1 || r.LSN < uint64(preKill) {
		t.Fatalf("zombie's readyz = %+v, want a term-1 primary at LSN >= %d", r, preKill)
	}
	fenced := e.start("fenced", semproxd, loser.addr, "-follow", zombie.url(), "-state", state[1-winner])
	waitFor(t, "the follower behind the zombie to report fenced", func() bool {
		return ready(fenced).Status == api.StatusFenced
	}, fenced, zombie)
	if r := ready(fenced); r.LSN < loserLSN {
		t.Fatalf("fenced follower went back from LSN %d to %d", loserLSN, r.LSN)
	}

	// With the zombie configured as the primary, reads still come from
	// the term-2 history, and a write addressed at it is never acked.
	r2 := client.NewRouter(zombie.url(), []string{promoted.url(), fenced.url()}, nil)
	r2.Probe(ctx)
	if _, err := r2.Query(ctx, class, acked[len(acked)-1], 3); err != nil {
		t.Fatalf("routed read with the zombie as configured primary: %v", err)
	}
	if _, err := update(client.New(zombie.url(), hc), 3*time.Second, "zombie-write"); err == nil {
		t.Fatal("the zombie acked a write nobody will ever replicate")
	}
}

// TestFailedPromotionExits: a follower that wins the election but cannot
// seal its log (its state directory is gone) must exit non-zero rather
// than keep answering readyz as a follower nothing will ever update.
func TestFailedPromotionExits(t *testing.T) {
	e := newEnv(t)
	p := e.primary()
	addr := e.freeAddr()
	f := e.start("follower", semproxd, addr, "-follow", p.url(), "-state", e.path("state"),
		"-advertise", "http://"+addr, "-peers", p.url())
	waitReady(t, 0, f)
	if err := os.RemoveAll(e.path("state")); err != nil {
		t.Fatal(err)
	}
	p.kill9()
	waitFor(t, "the follower to exit after its promotion failed", func() bool { return !f.alive() }, f)
	if code := f.cmd.ProcessState.ExitCode(); code != 1 || !strings.Contains(f.logText(), "PROMOTION FAILED") {
		t.Fatalf("exit code %d, want 1 and a PROMOTION FAILED line\n%s", code, f.logTail())
	}
}

// TestProxy: a semproxy in front of a primary and two followers. A repeat
// read is a byte-identical cache hit, an update through the proxy flushes
// it, and kill -9 of the primary under a reader loses no read.
func TestProxy(t *testing.T) {
	e := newEnv(t)
	p := e.primary()
	f1 := e.start("follower1", semproxd, "", "-follow", p.url())
	f2 := e.start("follower2", semproxd, "", "-follow", p.url())
	px := e.start("proxy", semproxy, "", "-primary", p.url(),
		"-followers", f1.url()+","+f2.url(), "-stats-poll", "200ms")
	if r := ready(px); r.Role != api.RoleProxy || !r.Ready() {
		t.Fatalf("proxy readyz = %+v", r)
	}

	// read returns the cache verdict, the epoch and the body of one GET.
	q := queryURL(px, "user-17", 5)
	read := func() (verdict string, epoch uint64, body []byte) {
		resp, body, err := get(q)
		if err != nil {
			t.Fatal(err)
		}
		epoch, _ = strconv.ParseUint(resp.Header.Get(api.HeaderEpoch), 10, 64)
		return resp.Header.Get(proxy.HeaderCache), epoch, body
	}
	v1, epoch1, b1 := read()
	v2, _, b2 := read()
	if v1 != "miss" || v2 != "hit" || !bytes.Equal(b1, b2) {
		t.Fatalf("repeat read: %s then %s, want miss then hit with equal bodies\n%s\n%s", v1, v2, b1, b2)
	}
	if _, err := update(client.New(px.url(), hc), waitTimeout, "edge-1", "user-17"); err != nil {
		t.Fatalf("update through the proxy: %v", err)
	}
	if v, _, _ := read(); v != "miss" {
		t.Fatalf("the read after the update was a %s: stale bytes", v)
	}
	waitFor(t, "a cache hit under a newer epoch", func() bool {
		read()
		v, epoch, _ := read()
		return v == "hit" && epoch > epoch1
	}, px, f1, f2)

	var st api.StatsResponse
	stderr := e.ctlJSON(&st, "-primary", px.url(), "-stats", "-counts")
	if st.Proxy == nil || st.Proxy.EpochFlushes < 1 || st.Proxy.CacheHits < 1 {
		t.Fatalf("proxy stats extension = %+v", st.Proxy)
	}
	if !strings.Contains(stderr, "edge cache:") || !strings.Contains(stderr, "edge reads:") {
		t.Fatalf("-stats -counts did not render the edge counters:\n%s", stderr)
	}

	// 100 distinct anchors, so every read is a forward no cache hit can
	// mask, with the primary dying a third of the way in.
	third, failed := make(chan struct{}), make(chan error, 100)
	go func() {
		defer close(failed)
		for i := 0; i < 100; i++ {
			if i == 33 {
				close(third)
			}
			if _, _, err := get(queryURL(px, fmt.Sprintf("user-%d", i), 3)); err != nil {
				failed <- err
			}
		}
	}()
	<-third
	p.kill9()
	for err := range failed {
		t.Errorf("read through the proxy across the primary's death: %v", err)
	}
	if t.Failed() {
		t.Fatalf("---- proxy\n%s", px.logTail())
	}
	if r := ready(px); !r.Ready() {
		t.Fatalf("proxy readyz = %+v with both followers alive", r)
	}
	if _, err := update(client.New(px.url(), hc), 10*time.Second, "orphan"); err == nil {
		t.Fatal("an update through the proxy succeeded with no primary alive")
	}
}

// TestObservability: /metrics on every tier with counters that move under
// traffic, one trace ID in the proxy's and a backend's log, the pprof
// listener, and semproxctl -metrics.
func TestObservability(t *testing.T) {
	e := newEnv(t)
	p := e.primary("-debug-addr", "127.0.0.1:0")
	f := e.start("follower", semproxd, "", "-follow", p.url())
	px := e.start("proxy", semproxy, "", "-primary", p.url(), "-followers", f.url(), "-stats-poll", "200ms")

	value := func(d *proc, series string) float64 { v, _ := metric(t, d, series); return v }
	waitFor(t, "the follower in the proxy's live set", func() bool {
		return value(px, "semprox_router_live_followers ") == 1
	}, px, f)
	for d, families := range map[*proc][]string{
		p: {"semprox_wal_fsync_seconds_count", "semprox_wal_appends_total", "semprox_wal_term",
			"semprox_engine_epoch", "semprox_engine_lsn", "semprox_http_requests_total{", "semprox_http_request_seconds{"},
		f: {"semprox_replica_lag", "semprox_replica_applied_lsn", "semprox_replica_polls_total", "semprox_replica_bootstraps_total"},
		px: {`semprox_proxy_hedges_total{outcome="issued"}`, `semprox_proxy_cache_lookups_total{result="hit"}`,
			`semprox_proxy_cache_lookups_total{result="miss"}`, "semprox_proxy_reads_total", "semprox_router_live_followers"},
	} {
		for _, family := range families {
			if _, ok := metric(t, d, family); !ok {
				t.Errorf("%s has no %s series", d.log, family)
			}
		}
	}

	const (
		queries = `semprox_http_requests_total{code="2xx",path="/v1/query"}`
		hits    = `semprox_proxy_cache_lookups_total{result="hit"}`
		misses  = `semprox_proxy_cache_lookups_total{result="miss"}`
		fsyncs  = "semprox_wal_fsync_seconds_count"
	)
	q0, m0, s0 := value(px, queries), value(px, misses), value(p, fsyncs)
	for i := 0; i < 2; i++ {
		if _, _, err := get(queryURL(px, "user-17", 5)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := update(client.New(px.url(), hc), waitTimeout, "obs-1", "user-17"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the query, cache and fsync counters to move", func() bool {
		return value(px, queries) >= q0+2 && value(px, hits) >= 1 && value(px, misses) > m0 && value(p, fsyncs) > s0
	}, px, p)
	waitFor(t, "the follower's lag gauge back at 0 on the new LSN", func() bool {
		return value(f, "semprox_replica_lag ") == 0 && value(f, "semprox_replica_applied_lsn ") == 1
	}, f)

	trace := fmt.Sprintf("e2e-trace-%d", time.Now().UnixNano())
	resp, _, err := get(queryURL(px, "user-42", 3), api.HeaderTrace, trace)
	if err != nil || resp.Header.Get(api.HeaderTrace) != trace {
		t.Fatalf("traced read: %v, echoed %q", err, resp.Header.Get(api.HeaderTrace))
	}
	waitFor(t, "trace="+trace+" in the proxy's log and in a backend's", func() bool {
		return strings.Contains(px.logText(), "trace="+trace) &&
			strings.Contains(p.logText()+f.logText(), "trace="+trace)
	}, px, p, f)

	m := regexp.MustCompile(`pprof on (http://\S+/debug/pprof/)`).FindStringSubmatch(p.logText())
	if m == nil {
		t.Fatalf("-debug-addr was not announced\n%s", p.logTail())
	}
	if _, index, err := get(m[1]); err != nil || !bytes.Contains(index, []byte("profile")) {
		t.Fatalf("pprof index at %s: %v\n%s", m[1], err, index)
	}

	expo, stderr, err := e.ctl("-primary", p.url(), "-metrics", "-metrics-prefix", "semprox_wal")
	if err != nil || !strings.Contains(expo, "\nsemprox_wal_fsync_seconds_count ") {
		t.Fatalf("semproxctl -metrics: %v\n%s\n%s", err, stderr, expo)
	}
	for _, line := range strings.Split(strings.TrimSpace(expo), "\n") {
		name := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
		if !strings.HasPrefix(name, "semprox_wal") {
			t.Errorf("-metrics-prefix semprox_wal let through %q", line)
		}
	}
}

// TestCheckpointAfterReplay: a durable primary stopped by SIGTERM exits 0.
// Restarted with -save, it replays its log and checkpoints the result,
// and a boot from that checkpoint on the same log replays nothing.
func TestCheckpointAfterReplay(t *testing.T) {
	e := newEnv(t)
	p := e.primary()
	for i := 1; i <= 3; i++ {
		if _, err := update(client.New(p.url(), hc), waitTimeout, fmt.Sprintf("ckpt-%d", i), "user-1"); err != nil {
			t.Fatal(err)
		}
	}
	p.stop()
	if code := p.cmd.ProcessState.ExitCode(); code != 0 {
		t.Fatalf("primary exited %d on SIGTERM, want 0\n%s", code, p.logTail())
	}

	ckpt := e.path("new.snap")
	replayed := e.start("replayed", semproxd, "", "-snapshot", seedSnap, "-wal", e.path("wal"), "-save", ckpt)
	for _, line := range []string{"recovered 3 logged updates", "wrote snapshot " + ckpt + " (LSN 3)"} {
		if !strings.Contains(replayed.logText(), line) {
			t.Fatalf("no %q in the checkpointing boot's log\n%s", line, replayed.logTail())
		}
	}
	replayed.stop()

	resumed := e.start("resumed", semproxd, "", "-snapshot", ckpt, "-wal", e.path("wal"))
	if r := ready(resumed); !r.Ready() || r.LSN != 3 || strings.Contains(resumed.logText(), "recovered") {
		t.Fatalf("boot from the checkpoint: readyz %+v, want ready at LSN 3 with no replay\n%s", r, resumed.logTail())
	}
	if resp, err := update(client.New(resumed.url(), hc), waitTimeout, "ckpt-4", "user-1"); err != nil || resp.LSN != 4 {
		t.Fatalf("the update after the checkpoint: %+v, %v; want LSN 4", resp, err)
	}
}

// TestSIGTERMDrains: SIGTERM lets the requests in flight finish — a query
// whose body is still arriving when the signal lands gets its 200 — while
// the follower's long poll ends at once, so the polled primary exits as soon
// as the query is answered, well inside the 5 s drain bound, and exits 0.
func TestSIGTERMDrains(t *testing.T) {
	e := newEnv(t)
	p := e.primary()
	f := e.start("follower", semproxd, "", "-follow", p.url())
	waitReady(t, 0, f)

	conn, err := net.Dial("tcp", p.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"class":"` + class + `","query":"user-17","k":5}`
	if _, err := fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: %s\r\n%s: sigterm-last\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		api.PathQuery, p.addr, api.HeaderTrace, len(body), body[:10]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // the handler is reading the body

	signaled := time.Now()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the primary's listener to close", func() bool {
		c, err := net.Dial("tcp", p.addr)
		if err == nil {
			c.Close()
		}
		return err != nil
	}, p)
	if !p.alive() {
		t.Fatalf("the primary exited with a query in flight\n%s", p.logTail())
	}
	if _, err := io.WriteString(conn, body[10:]); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("the query in flight at SIGTERM: %v, %v\n%s", resp, err, p.logTail())
	}
	resp.Body.Close()
	select {
	case <-p.exited:
	case <-time.After(waitTimeout):
		t.Fatalf("the primary did not exit after its last request\n%s", p.logTail())
	}
	if d := time.Since(signaled); d > 2500*time.Millisecond {
		t.Errorf("a primary with a follower polling it took %v to exit after SIGTERM", d)
	}
	if code := p.cmd.ProcessState.ExitCode(); code != 0 {
		t.Fatalf("primary exited %d on SIGTERM, want 0\n%s", code, p.logTail())
	}
	// Request lines wait in a buffer for up to 100 ms; the last request
	// served before SIGTERM must still have its line once the process is
	// gone.
	if !strings.Contains(p.logText(), "trace=sigterm-last") {
		t.Fatalf("no request line for the query served during the drain\n%s", p.logTail())
	}
}

// TestRequestLinesSurviveSIGTERM: a request through the proxy, then SIGTERM
// to both daemons at once, inside the 100 ms the request lines may wait in
// their buffers: each daemon's log has the line once it has exited.
func TestRequestLinesSurviveSIGTERM(t *testing.T) {
	e := newEnv(t)
	p := e.primary()
	px := e.start("proxy", semproxy, "", "-primary", p.url())
	waitFor(t, "the proxy ready", func() bool { return ready(px).Ready() }, px, p)

	trace := fmt.Sprintf("last-%d", time.Now().UnixNano())
	resp, _, err := get(queryURL(px, "user-17", 5), api.HeaderTrace, trace)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("traced read: %v, %v", resp, err)
	}
	px.stop()
	p.stop()
	for _, d := range []*proc{px, p} {
		if code := d.cmd.ProcessState.ExitCode(); code != 0 {
			t.Errorf("%s exited %d on SIGTERM, want 0\n%s", d.log, code, d.logTail())
		}
		if !strings.Contains(d.logText(), "trace="+trace) {
			t.Errorf("%s has no line for the last request\n%s", d.log, d.logTail())
		}
	}
}

// TestDependencyCut: the serving daemon links the engine alone — no root
// facade, miner, Alg. 1 similarity, evaluation or dataset generator — the
// engine binaries link neither the paper's experiments nor their ranking
// baselines (the Fig. 11 matchers live there), the edge binaries link
// neither the engine nor the replication stack, and the ranking core does
// not reach Alg. 1's structural similarity.
func TestDependencyCut(t *testing.T) {
	newEnv(t)
	for pkg, banned := range map[string][]string{
		"./cmd/" + semproxd: {"repro", "repro/internal/mining", "repro/internal/mcs", "repro/internal/eval",
			"repro/internal/dataset", "repro/internal/experiments", "repro/internal/baselines"},
		"./cmd/" + semprox:    {"repro/internal/experiments", "repro/internal/baselines"},
		"./cmd/" + semproxy:   {"repro", "repro/internal/replica"},
		"./cmd/" + semproxctl: {"repro", "repro/internal/replica"},
		"./internal/core":     {"repro/internal/mcs"},
	} {
		list := exec.Command("go", "list", "-deps", pkg)
		list.Dir = filepath.Join("..", "..")
		out, err := list.Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", pkg, err)
		}
		deps := strings.Fields(string(out))
		for _, dep := range banned {
			if slices.Contains(deps, dep) {
				t.Errorf("%s links %s", pkg, dep)
			}
		}
	}
}

// TestFlagRefusals: a flag combination a program cannot serve must end the
// process with exit 1 and the flag named on stderr, before any listener;
// a flag the program does not define ends it with the flag package's 2.
func TestFlagRefusals(t *testing.T) {
	e := newEnv(t)
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	taken := held.Addr().String()
	const up = "http://127.0.0.1:1" // well-formed; refused before anything dials it
	for _, tc := range []struct {
		name, bin string
		args      []string
		code      int
		want      []string
	}{
		{"neither snapshot nor follow", semproxd, nil, 1, []string{"-snapshot", "-follow", "semprox -save"}},
		{"snapshot with follow", semproxd, []string{"-follow", up, "-snapshot", seedSnap}, 1, []string{"-snapshot"}},
		{"state without follow", semproxd, []string{"-snapshot", seedSnap, "-state", e.path("s")}, 1, []string{"-state", "-follow"}},
		{"peers without follow", semproxd, []string{"-snapshot", seedSnap, "-peers", up}, 1, []string{"-peers", "-follow"}},
		{"advertise without follow", semproxd, []string{"-snapshot", seedSnap, "-advertise", up}, 1, []string{"-advertise", "-follow"}},
		{"ack-replicas without wal", semproxd, []string{"-snapshot", seedSnap, "-ack-replicas", "1"}, 1, []string{"-ack-replicas", "-wal"}},
		{"peers without state", semproxd, []string{"-follow", up, "-peers", up, "-advertise", up}, 1, []string{"-peers", "-state"}},
		{"peers without advertise", semproxd, []string{"-follow", up, "-peers", up, "-state", e.path("s")}, 1, []string{"-peers", "-advertise"}},
		{"malformed peers", semproxd, []string{"-follow", up, "-peers", up + ",peer:8080", "-state", e.path("s"), "-advertise", up}, 1, []string{"-peers", "peer:8080"}},
		{"wal with follow", semproxd, []string{"-follow", up, "-wal", e.path("w")}, 1, []string{"-wal"}},
		{"save with follow", semproxd, []string{"-follow", up, "-save", e.path("f.snap")}, 1, []string{"-save"}},
		{"malformed follow", semproxd, []string{"-follow", "primary:8080"}, 1, []string{"-follow"}},
		{"malformed advertise", semproxd, []string{"-follow", up, "-peers", up, "-state", e.path("s"), "-advertise", "me"}, 1, []string{"-advertise"}},
		{"malformed primary", semproxy, []string{"-primary", "localhost"}, 1, []string{"-primary"}},
		{"malformed followers", semproxy, []string{"-primary", up, "-followers", up + ",ftp://x"}, 1, []string{"-followers"}},
		{"malformed primary, ctl", semproxctl, []string{"-primary", "localhost", "-stats"}, 1, []string{"-primary"}},
		{"malformed followers, ctl", semproxctl, []string{"-primary", up, "-followers", up + ",ftp://x", "-stats"}, 1, []string{"-followers"}},
		{"unknown dataset", semprox, []string{"-dataset", "orkut"}, 1, []string{"-dataset", "orkut"}},
		{"graph without labels", semprox, []string{"-graph", e.path("g")}, 1, []string{"-graph", "-labels"}},
		{"unknown class", semprox, []string{"-classes", "college,chess"}, 1, []string{"-classes", "chess"}},
		{"empty class", semprox, []string{"-classes", "college,"}, 1, []string{"-classes"}},
		{"debug-addr taken", semproxd, []string{"-snapshot", seedSnap, "-debug-addr", taken}, 1, []string{"-debug-addr", "address already in use"}},
		{"debug-addr taken, proxy", semproxy, []string{"-primary", up, "-debug-addr", taken}, 1, []string{"-debug-addr", "address already in use"}},
		{"addr taken", semproxd, []string{"-snapshot", seedSnap, "-addr", taken}, 1, []string{"address already in use"}},
		// Settings that had one value in use are constants now: the flag
		// package refuses them by name, with its usage exit code.
		{"request-log removed", semproxd, []string{"-snapshot", seedSnap, "-request-log=false"}, 2, []string{"flag provided but not defined: -request-log"}},
		{"slow-query removed", semproxd, []string{"-snapshot", seedSnap, "-slow-query", "1s"}, 2, []string{"flag provided but not defined: -slow-query"}},
		{"request-log removed, proxy", semproxy, []string{"-primary", up, "-request-log=false"}, 2, []string{"flag provided but not defined: -request-log"}},
		{"slow-query removed, proxy", semproxy, []string{"-primary", up, "-slow-query", "1s"}, 2, []string{"flag provided but not defined: -slow-query"}},
		{"hedge removed", semproxy, []string{"-primary", up, "-hedge=false"}, 2, []string{"flag provided but not defined: -hedge"}},
		{"cache-entries removed", semproxy, []string{"-primary", up, "-cache-entries", "0"}, 2, []string{"flag provided but not defined: -cache-entries"}},
		{"probe removed", semproxy, []string{"-primary", up, "-probe", "1s"}, 2, []string{"flag provided but not defined: -probe"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
			defer cancel()
			args := tc.args
			if tc.bin == semproxd || tc.bin == semproxy {
				// A free -addr, so a daemon that wrongly boots is a timeout here, not a bind error.
				args = append([]string{"-addr", "127.0.0.1:0"}, args...)
			}
			cmd := exec.CommandContext(ctx, filepath.Join(binDir, tc.bin), args...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			if code := cmd.ProcessState.ExitCode(); err == nil || code != tc.code {
				t.Fatalf("%s %v: exit %d (%v), want %d\n%s", tc.bin, tc.args, code, err, tc.code, stderr.String())
			}
			for _, w := range tc.want {
				if !strings.Contains(stderr.String(), w) {
					t.Errorf("%s %v: stderr does not name %q:\n%s", tc.bin, tc.args, w, stderr.String())
				}
			}
		})
	}
}
