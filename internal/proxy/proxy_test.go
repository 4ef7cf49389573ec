package proxy

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	semprox "repro"
	"repro/api"
	"repro/client"
	"repro/internal/fixtures"
	"repro/internal/mining"
	"repro/internal/server"
)

// fake is a scripted backend: readyz answers with the configured role,
// query sleeps the configured delay (bailing out — and counting — when
// the proxy cancels the attempt), update just counts.
type fake struct {
	ts        *httptest.Server
	role      string
	delay     atomic.Int64 // nanoseconds
	queries   atomic.Int64
	updates   atomic.Int64
	cancelled atomic.Int64
	lastTrace atomic.Value // last X-Semprox-Trace seen on a query
}

func newFake(t *testing.T, role string, delay time.Duration) *fake {
	t.Helper()
	f := &fake{role: role}
	f.delay.Store(int64(delay))
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathReadyz, func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.ReadyResponse{Status: api.StatusReady, Role: f.role, Term: 1})
	})
	mux.HandleFunc(api.PathQuery, func(w http.ResponseWriter, r *http.Request) {
		f.queries.Add(1)
		f.lastTrace.Store(r.Header.Get(api.HeaderTrace))
		if d := time.Duration(f.delay.Load()); d > 0 {
			select {
			case <-time.After(d):
			case <-r.Context().Done():
				f.cancelled.Add(1)
				return
			}
		}
		w.Header().Set(api.HeaderEpoch, "1")
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"from":%q}`, f.ts.URL)
	})
	mux.HandleFunc(api.PathUpdate, func(w http.ResponseWriter, r *http.Request) {
		f.updates.Add(1)
		json.NewEncoder(w).Encode(api.UpdateResponse{Epoch: 2, LSN: 1})
	})
	mux.HandleFunc(api.PathStats, func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.StatsResponse{Epoch: 7})
	})
	mux.HandleFunc(api.PathHealthz, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"healthz_from":%q}`, f.ts.URL)
	})
	mux.HandleFunc(api.PathReplicateSince, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"since":%q,"from":%q}`, r.URL.Query().Get("from"), f.ts.URL)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

// fakeStack wires a fake primary + followers behind a proxy.
func fakeStack(t *testing.T, opts Options, primary *fake, followers ...*fake) (*Proxy, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(followers))
	for i, f := range followers {
		urls[i] = f.ts.URL
	}
	router := client.NewRouter(primary.ts.URL, urls, nil)
	router.Probe(context.Background())
	p := New(router, opts)
	ts := httptest.NewServer(p)
	t.Cleanup(ts.Close)
	return p, ts
}

func get(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// TestHedgeWinsOverStraggler: a slow follower's reads must be rescued by
// a hedge to the fast one — the winner's bytes come back, the loser is
// cancelled through its context, and the counters record all of it.
func TestHedgeWinsOverStraggler(t *testing.T) {
	primary := newFake(t, api.RolePrimary, 0)
	slow := newFake(t, api.RoleFollower, 300*time.Millisecond)
	fast := newFake(t, api.RoleFollower, 0)
	_, ts := fakeStack(t, Options{
		Hedge:       true,
		HedgeCapPct: 100, // the cap is not under test here
		HedgeBudget: 20 * time.Millisecond,
	}, primary, slow, fast)

	p := tsProxy(t, ts)
	sawHedgeWin := false
	for i := 0; i < 6; i++ {
		status, body, _ := get(t, ts.URL+api.PathQuery+"?class=c&query=q")
		if status != http.StatusOK {
			t.Fatalf("read %d: status %d: %s", i, status, body)
		}
		// Every response must name a backend that actually answered; a
		// read that started on the slow follower must have been rescued by
		// the fast one well before the slow 300ms completes.
		if strings.Contains(string(body), fast.ts.URL) {
			sawHedgeWin = true
		}
	}
	c := p.Counters()
	if c.HedgesIssued == 0 || c.HedgesWon == 0 || !sawHedgeWin {
		t.Fatalf("expected hedges to fire and win: %+v (sawHedgeWin=%v)", c, sawHedgeWin)
	}
	if c.HedgesIssued > c.Reads {
		t.Fatalf("more hedges than reads: %+v", c)
	}
	// The slow follower's abandoned attempts were cancelled, not left
	// running to completion.
	deadline := time.Now().Add(2 * time.Second)
	for slow.cancelled.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if slow.cancelled.Load() == 0 {
		t.Fatal("the losing attempt was never cancelled")
	}
}

// tsProxy recovers the *Proxy behind a test server (fakeStack returns it
// already; this helper exists for tests that only kept the server).
func tsProxy(t *testing.T, ts *httptest.Server) *Proxy {
	t.Helper()
	p, ok := ts.Config.Handler.(*Proxy)
	if !ok {
		t.Fatal("test server does not wrap a Proxy")
	}
	return p
}

// TestNoHedgeUnderBudget: fast backends answer well inside the budget,
// so the hedge timer must never fire.
func TestNoHedgeUnderBudget(t *testing.T) {
	primary := newFake(t, api.RolePrimary, 0)
	a := newFake(t, api.RoleFollower, 0)
	b := newFake(t, api.RoleFollower, 0)
	p, ts := fakeStack(t, Options{
		Hedge:       true,
		HedgeCapPct: 100,
		// Far beyond any loopback latency even on a loaded -race runner.
		// HedgeBudgetMax must rise with it or the default 100ms clamp
		// would silently lower the budget back down — and HedgeBudgetMin
		// must too, or the per-backend p95 estimate (sub-millisecond over
		// loopback, clamped UP to the 1ms default min) replaces the
		// configured budget after the first read and one slow scheduling
		// hiccup fires a hedge.
		HedgeBudget:    5 * time.Second,
		HedgeBudgetMin: 5 * time.Second,
		HedgeBudgetMax: 5 * time.Second,
	}, primary, a, b)
	for i := 0; i < 20; i++ {
		if status, body, _ := get(t, ts.URL+api.PathQuery+"?class=c&query=q"); status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
	}
	if c := p.Counters(); c.HedgesIssued != 0 {
		t.Fatalf("hedges fired under budget: %+v", c)
	}
}

// TestHedgeCapEnforced: with every backend slow and a tiny budget, every
// read WANTS a hedge — the cap must keep issued hedges at or under
// HedgeCapPct% of forwarded reads.
func TestHedgeCapEnforced(t *testing.T) {
	primary := newFake(t, api.RolePrimary, 20*time.Millisecond)
	a := newFake(t, api.RoleFollower, 20*time.Millisecond)
	b := newFake(t, api.RoleFollower, 20*time.Millisecond)
	p, ts := fakeStack(t, Options{
		Hedge:          true,
		HedgeCapPct:    10,
		HedgeBudget:    time.Millisecond,
		HedgeBudgetMax: 2 * time.Millisecond, // keep the estimator from raising the budget past the delay
	}, primary, a, b)
	const reads = 40
	for i := 0; i < reads; i++ {
		if status, body, _ := get(t, ts.URL+api.PathQuery+"?class=c&query=q"); status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
	}
	c := p.Counters()
	if c.Reads != reads {
		t.Fatalf("reads = %d, want %d", c.Reads, reads)
	}
	if c.HedgesIssued == 0 {
		t.Fatal("cap test needs hedges to actually fire")
	}
	if c.HedgesIssued*100 > uint64(10)*c.Reads {
		t.Fatalf("hedge rate over the 10%% cap: %+v", c)
	}
}

// TestWritesNeverHedged: an update through the proxy reaches exactly the
// primary exactly once, however slow it is and however aggressive the
// hedge settings are.
func TestWritesNeverHedged(t *testing.T) {
	primary := newFake(t, api.RolePrimary, 0)
	a := newFake(t, api.RoleFollower, 0)
	b := newFake(t, api.RoleFollower, 0)
	p, ts := fakeStack(t, Options{
		Hedge:       true,
		HedgeCapPct: 100,
		HedgeBudget: time.Millisecond,
	}, primary, a, b)
	resp, err := http.Post(ts.URL+api.PathUpdate, "application/json",
		strings.NewReader(`{"nodes":[{"type":"user","name":"n"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d", resp.StatusCode)
	}
	if got := primary.updates.Load(); got != 1 {
		t.Fatalf("primary saw %d updates, want 1", got)
	}
	if a.updates.Load() != 0 || b.updates.Load() != 0 {
		t.Fatal("an update reached a follower")
	}
	if c := p.Counters(); c.HedgesIssued != 0 {
		t.Fatalf("an update was hedged: %+v", c)
	}
	// The update's response epoch advanced the cache tracker.
	if c := p.Counters(); c.Epoch != 2 {
		t.Fatalf("update epoch not tracked: %+v", c)
	}
}

// TestStatsCarriesProxyExtension: the forwarded stats gain the proxy's
// counters, and the primary's epoch piggybacks into the tracker.
func TestStatsCarriesProxyExtension(t *testing.T) {
	primary := newFake(t, api.RolePrimary, 0)
	p, ts := fakeStack(t, Options{CacheEntries: 16}, primary)
	status, body, _ := get(t, ts.URL+api.PathStats)
	if status != http.StatusOK {
		t.Fatalf("stats status %d: %s", status, body)
	}
	var st api.StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Proxy == nil {
		t.Fatal("stats response lacks the proxy extension")
	}
	if st.Proxy.Epoch != 7 {
		t.Fatalf("stats epoch did not piggyback into the tracker: %+v", st.Proxy)
	}
	if got := p.Counters().Epoch; got != 7 {
		t.Fatalf("tracker epoch = %d, want 7", got)
	}
}

// TestReadyz: ready with a live backend, no_backends with none.
func TestReadyz(t *testing.T) {
	primary := newFake(t, api.RolePrimary, 0)
	_, ts := fakeStack(t, Options{}, primary)
	status, body, _ := get(t, ts.URL+api.PathReadyz)
	if status != http.StatusOK {
		t.Fatalf("readyz = %d: %s", status, body)
	}
	var rr api.ReadyResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Role != api.RoleProxy || rr.Status != api.StatusReady {
		t.Fatalf("readyz body = %+v", rr)
	}

	dead := newFake(t, api.RolePrimary, 0)
	deadURL := dead.ts.URL
	dead.ts.Close()
	router := client.NewRouter(deadURL, nil, nil)
	p2 := httptest.NewServer(New(router, Options{}))
	defer p2.Close()
	status, body, _ = get(t, p2.URL+api.PathReadyz)
	if status != http.StatusServiceUnavailable || !strings.Contains(string(body), api.StatusNoBackends) {
		t.Fatalf("dead-backend readyz = %d: %s", status, body)
	}
}

// --- the cache-correctness property test against a REAL engine ---

// liveStack is a trained engine server behind a caching proxy.
type liveStack struct {
	eng     *semprox.Engine
	g       *semprox.Graph
	backend *httptest.Server
	proxy   *Proxy
	edge    *httptest.Server
}

func newLiveStack(t *testing.T, cacheEntries int) *liveStack {
	t.Helper()
	g := fixtures.Toy()
	opts := semprox.DefaultOptions()
	opts.Mining = mining.Options{MaxNodes: 4, MinSupport: 1}
	opts.Train.Restarts = 2
	opts.Train.MaxIters = 200
	eng, err := semprox.NewEngine(g, "user", opts)
	if err != nil {
		t.Fatal(err)
	}
	eng.Train("classmate", []semprox.Example{
		{Q: g.NodeByName("Kate"), X: g.NodeByName("Jay"), Y: g.NodeByName("Alice")},
		{Q: g.NodeByName("Bob"), X: g.NodeByName("Tom"), Y: g.NodeByName("Alice")},
	})
	backend := httptest.NewServer(server.New(eng))
	t.Cleanup(backend.Close)
	router := client.NewRouter(backend.URL, nil, backend.Client())
	p := New(router, Options{CacheEntries: cacheEntries})
	edge := httptest.NewServer(p)
	t.Cleanup(edge.Close)
	return &liveStack{eng: eng, g: g, backend: backend, proxy: p, edge: edge}
}

// TestCacheMatchesFreshUnderUpdates is the cache-correctness property
// test: while updates hammer the graph through the proxy, every read
// response — cached through the proxy or fresh from the backend — that
// claims a given (request, epoch) pair must be byte-identical to every
// other response claiming the same pair. Epochs are immutable
// generations and the engine's scan is deterministic per epoch, so any
// divergence means the cache served stale bytes under a fresh epoch (or
// admitted a stale fill). Run under -race this also hammers the
// tracker/LRU locking.
func TestCacheMatchesFreshUnderUpdates(t *testing.T) {
	st := newLiveStack(t, 256)

	var mu sync.Mutex
	canonical := make(map[string][]byte) // (request key | epoch) -> bytes
	check := func(t *testing.T, key string, epoch string, body []byte) {
		mu.Lock()
		defer mu.Unlock()
		ck := key + "|" + epoch
		if prev, ok := canonical[ck]; ok {
			if string(prev) != string(body) {
				t.Errorf("two responses for %s diverge:\n%s\n--- vs ---\n%s", ck, prev, body)
			}
			return
		}
		canonical[ck] = body
	}

	fetch := func(t *testing.T, base, path string) (string, []byte) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return "", nil
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d err %v: %s", path, resp.StatusCode, err, body)
			return "", nil
		}
		return resp.Header.Get(api.HeaderEpoch), body
	}

	const updates = 25
	done := make(chan struct{})
	go func() { // writer: grow the graph through the proxy
		defer close(done)
		c := client.New(st.edge.URL, nil)
		for i := 0; i < updates; i++ {
			_, err := c.Update(context.Background(), api.UpdateRequest{
				Nodes: []api.UpdateNode{{Type: "user", Name: fmt.Sprintf("prop-%d", i)}},
				Edges: []api.UpdateEdge{{U: fmt.Sprintf("prop-%d", i), V: "Kate"}},
			})
			if err != nil {
				t.Errorf("update %d: %v", i, err)
				return
			}
		}
	}()

	anchors := []string{"Kate", "Bob", "Alice", "Jay", "Tom"}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			// Read while the writer runs, and a minimum however fast it
			// finishes: 25 updates of a toy graph can be over before the
			// readers are scheduled.
			for i := 0; ; i++ {
				select {
				case <-done:
					if i >= 50 {
						return
					}
				default:
				}
				a := anchors[rng.Intn(len(anchors))]
				var path string
				if rng.Intn(4) == 0 {
					b := anchors[rng.Intn(len(anchors))]
					path = api.PathProximity + "?class=classmate&x=" + a + "&y=" + b
				} else {
					path = api.PathQuery + "?class=classmate&query=" + a + "&k=3"
				}
				// The proxy (cached or not) and the backend (always fresh)
				// must agree whenever they claim the same epoch.
				if epoch, body := fetch(t, st.edge.URL, path); body != nil {
					check(t, path, epoch, body)
				}
				if epoch, body := fetch(t, st.backend.URL, path); body != nil {
					check(t, path, epoch, body)
				}
			}
		}(int64(r + 1))
	}
	<-done
	wg.Wait()
	if t.Failed() {
		return
	}

	c := st.proxy.Counters()
	if c.CacheHits == 0 {
		t.Fatalf("property test never exercised a cache hit: %+v", c)
	}
	if c.EpochFlushes < updates {
		t.Fatalf("expected at least %d epoch flushes, got %+v", updates, c)
	}
	// And after the dust settles: a cached read equals a fresh one.
	path := api.PathQuery + "?class=classmate&query=Kate&k=3"
	_, first := fetch(t, st.edge.URL, path)
	_, second := fetch(t, st.edge.URL, path)
	_, direct := fetch(t, st.backend.URL, path)
	if string(first) != string(second) || string(first) != string(direct) {
		t.Fatal("post-run cached/fresh responses diverge")
	}
}

// TestPlainReadAndReplicatePassthrough: healthz is a hedged forward with
// no cache, and the replication endpoints stream through to the resolved
// primary untouched — a follower must never answer them.
func TestPlainReadAndReplicatePassthrough(t *testing.T) {
	primary := newFake(t, api.RolePrimary, 0)
	follower := newFake(t, api.RoleFollower, 0)
	_, ts := fakeStack(t, Options{}, primary, follower)

	status, body, _ := get(t, ts.URL+api.PathHealthz)
	if status != http.StatusOK {
		t.Fatalf("healthz through proxy: status %d: %s", status, body)
	}
	if !strings.Contains(string(body), `"healthz_from"`) {
		t.Fatalf("healthz body not forwarded from a backend: %s", body)
	}

	status, body, _ = get(t, ts.URL+api.PathReplicateSince+"?from=42")
	if status != http.StatusOK {
		t.Fatalf("replicate/since through proxy: status %d: %s", status, body)
	}
	want := fmt.Sprintf(`{"since":"42","from":%q}`, primary.ts.URL)
	if string(body) != want {
		t.Fatalf("replicate/since must pass through to the primary:\n got %s\nwant %s", body, want)
	}
}

// TestMethodAndBodyRejections: the proxy's own envelope rendering must
// mirror the backend's — 405 with an Allow header for a bad method, 400
// for malformed or trailing JSON on update, all without touching a
// backend.
func TestMethodAndBodyRejections(t *testing.T) {
	primary := newFake(t, api.RolePrimary, 0)
	_, ts := fakeStack(t, Options{}, primary)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+api.PathQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE query: status %d, want 405: %s", resp.StatusCode, body)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, http.MethodGet) {
		t.Fatalf("405 Allow header %q must list GET", allow)
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != api.CodeMethodNotAllowed {
		t.Fatalf("405 envelope mismatch (%v): %s", err, body)
	}

	for name, payload := range map[string]string{
		"malformed": `{"nodes":`,
		"trailing":  `{}{"extra":1}`,
		"unknown":   `{"bogus_field":1}`,
	} {
		resp, err := http.Post(ts.URL+api.PathUpdate, "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s update body: status %d, want 400: %s", name, resp.StatusCode, body)
		}
		var env api.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != api.CodeBadRequest {
			t.Fatalf("%s update 400 envelope mismatch (%v): %s", name, err, body)
		}
	}
	if n := primary.updates.Load(); n != 0 {
		t.Fatalf("rejected updates still reached the primary %d times", n)
	}
}

// TestUnversionedPathsAre404OnBothTiers: with the pre-/v1 aliases gone,
// "/query", "/stats", … are not endpoints — the server and the proxy
// both answer the same 404 envelope (never the mux's plain-text page,
// never a forward), and a 405 still names the /v1 path it refused.
func TestUnversionedPathsAre404OnBothTiers(t *testing.T) {
	st := newLiveStack(t, 0)
	tiers := []string{st.backend.URL, st.edge.URL}
	for _, p := range api.Paths() {
		bare := strings.TrimPrefix(p, api.Prefix)
		var bodies [2][]byte
		for i, base := range tiers {
			status, body, _ := get(t, base+bare)
			var env api.ErrorEnvelope
			if err := json.Unmarshal(body, &env); status != http.StatusNotFound || err != nil ||
				env.Error.Code != api.CodeNotFound || !strings.Contains(env.Error.Message, bare) {
				t.Fatalf("GET %s%s = %d %q (%v), want the 404 %s envelope naming the path",
					base, bare, status, body, err, api.CodeNotFound)
			}
			bodies[i] = body
		}
		if string(bodies[0]) != string(bodies[1]) {
			t.Fatalf("%s: server and proxy 404 bodies differ:\n%s\n%s", bare, bodies[0], bodies[1])
		}
	}
	for _, base := range tiers {
		req, err := http.NewRequest(http.MethodDelete, base+api.PathQuery, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var env api.ErrorEnvelope
		if err := json.Unmarshal(body, &env); resp.StatusCode != http.StatusMethodNotAllowed || err != nil ||
			env.Error.Code != api.CodeMethodNotAllowed || !strings.Contains(env.Error.Message, api.PathQuery) {
			t.Fatalf("DELETE %s%s = %d %q (%v), want a 405 envelope naming %s",
				base, api.PathQuery, resp.StatusCode, body, err, api.PathQuery)
		}
	}
}

// TestUpdateUpstreamFailureIs502: a transport-dead primary must surface
// as a structured 502, not a hung or empty response.
func TestUpdateUpstreamFailureIs502(t *testing.T) {
	primary := newFake(t, api.RolePrimary, 0)
	follower := newFake(t, api.RoleFollower, 0)
	_, ts := fakeStack(t, Options{}, primary, follower)
	primary.ts.Close()

	resp, err := http.Post(ts.URL+api.PathUpdate, "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("update with dead primary: status %d, want 502: %s", resp.StatusCode, body)
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != api.CodeInternal {
		t.Fatalf("502 envelope mismatch (%v): %s", err, body)
	}
}

// TestAdvanceEpochFlushes: the externally fed epoch (cmd/semproxy's
// stats poll) must flush the cache exactly like an update through the
// proxy would.
func TestAdvanceEpochFlushes(t *testing.T) {
	primary := newFake(t, api.RolePrimary, 0)
	p, ts := fakeStack(t, Options{CacheEntries: 16}, primary)

	url := ts.URL + api.PathQuery + "?class=c&query=q"
	get(t, url)
	_, _, h := get(t, url)
	if got := h.Get(HeaderCache); got != "hit" {
		t.Fatalf("repeat read: %s = %q, want hit", HeaderCache, got)
	}
	p.AdvanceEpoch(99)
	_, _, h = get(t, url)
	if got := h.Get(HeaderCache); got != "miss" {
		t.Fatalf("read after AdvanceEpoch: %s = %q, want miss", HeaderCache, got)
	}
	c := p.Counters()
	if c.Epoch != 99 || c.EpochFlushes == 0 {
		t.Fatalf("counters after AdvanceEpoch(99): epoch %d flushes %d", c.Epoch, c.EpochFlushes)
	}
}
