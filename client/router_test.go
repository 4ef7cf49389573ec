package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/replica"
	"repro/internal/server"
)

// fakeReplica is a stub backend with a togglable readiness and failure
// mode — enough HTTP semantics for the Router's routing decisions
// without an engine behind every test.
type fakeReplica struct {
	ts      *httptest.Server
	ready   atomic.Bool
	failing atomic.Bool // queries answer 500
	queries atomic.Int64
}

func newFakeReplica(t *testing.T, name string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{}
	f.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathReadyz, func(w http.ResponseWriter, r *http.Request) {
		resp := api.ReadyResponse{Status: api.StatusReady, Role: api.RoleFollower}
		code := http.StatusOK
		if !f.ready.Load() {
			resp.Status = api.StatusCatchingUp
			resp.Lag = 3
			code = http.StatusServiceUnavailable
		}
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(resp) //nolint:errcheck
	})
	mux.HandleFunc(api.PathQuery, func(w http.ResponseWriter, r *http.Request) {
		f.queries.Add(1)
		if f.failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(api.ErrorEnvelope{ //nolint:errcheck
				Error: api.Error{Code: api.CodeInternal, Message: "induced failure"}})
			return
		}
		json.NewEncoder(w).Encode(api.QueryResponse{ //nolint:errcheck
			Class: "c", K: 1, Results: []api.QueryResult{{Query: name}}})
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

// servedBy extracts which fake backend answered a routed query.
func servedBy(resp api.QueryResponse) string {
	if len(resp.Results) == 1 {
		return resp.Results[0].Query
	}
	return "?"
}

// TestRouterSpreadsReads: two live followers share reads round-robin and
// the primary serves none.
func TestRouterSpreadsReads(t *testing.T) {
	p := newFakeReplica(t, "primary")
	f1 := newFakeReplica(t, "f1")
	f2 := newFakeReplica(t, "f2")
	r := client.NewRouter(p.ts.URL, []string{f1.ts.URL, f2.ts.URL}, nil)
	ctx := context.Background()
	if live := r.Probe(ctx); live != 2 {
		t.Fatalf("live = %d, want 2", live)
	}
	got := map[string]int{}
	for i := 0; i < 10; i++ {
		resp, err := r.Query(ctx, "c", "q", 1)
		if err != nil {
			t.Fatal(err)
		}
		got[servedBy(resp)]++
	}
	if got["f1"] != 5 || got["f2"] != 5 {
		t.Fatalf("spread = %v, want 5/5", got)
	}
	if p.queries.Load() != 0 {
		t.Fatalf("primary served %d reads with two live followers", p.queries.Load())
	}
	counts := r.Counts()
	if counts[f1.ts.URL] != 5 || counts[f2.ts.URL] != 5 || counts[p.ts.URL] != 0 {
		t.Fatalf("counts = %v", counts)
	}
}

// TestRouterLaggingFollowerEjectedAndReadmitted: a follower whose readyz
// reports catching_up leaves rotation at the next probe and re-enters
// once it reports ready again.
func TestRouterLaggingFollowerEjectedAndReadmitted(t *testing.T) {
	p := newFakeReplica(t, "primary")
	f1 := newFakeReplica(t, "f1")
	f2 := newFakeReplica(t, "f2")
	r := client.NewRouter(p.ts.URL, []string{f1.ts.URL, f2.ts.URL}, nil)
	ctx := context.Background()

	f1.ready.Store(false)
	if live := r.Probe(ctx); live != 1 {
		t.Fatalf("live = %d, want 1", live)
	}
	if got := r.Live(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("live set = %v, want [1]", got)
	}
	for i := 0; i < 4; i++ {
		resp, err := r.Query(ctx, "c", "q", 1)
		if err != nil {
			t.Fatal(err)
		}
		if servedBy(resp) != "f2" {
			t.Fatalf("read %d served by %s, want f2", i, servedBy(resp))
		}
	}
	if f1.queries.Load() != 0 {
		t.Fatal("lagging follower served reads")
	}

	f1.ready.Store(true)
	if live := r.Probe(ctx); live != 2 {
		t.Fatalf("live after catch-up = %d, want 2", live)
	}
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		resp, err := r.Query(ctx, "c", "q", 1)
		if err != nil {
			t.Fatal(err)
		}
		seen[servedBy(resp)] = true
	}
	if !seen["f1"] || !seen["f2"] {
		t.Fatalf("re-admitted follower not serving: %v", seen)
	}
}

// TestRouterFailsOverAndEjectsOnError: a follower that starts answering
// 5xx is ejected mid-request — the read completes on another replica —
// and reads never return the failure to the caller.
func TestRouterFailsOverAndEjectsOnError(t *testing.T) {
	p := newFakeReplica(t, "primary")
	f1 := newFakeReplica(t, "f1")
	f2 := newFakeReplica(t, "f2")
	r := client.NewRouter(p.ts.URL, []string{f1.ts.URL, f2.ts.URL}, nil)
	ctx := context.Background()
	r.Probe(ctx)

	f1.failing.Store(true)
	for i := 0; i < 6; i++ {
		resp, err := r.Query(ctx, "c", "q", 1)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if servedBy(resp) == "f1" {
			t.Fatalf("read %d served by the failing follower", i)
		}
	}
	// f1 took at most one request (the failover trigger), then left
	// rotation without a probe.
	if n := f1.queries.Load(); n > 1 {
		t.Fatalf("failing follower was retried %d times", n)
	}
	if got := r.Live(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("live set = %v, want [1]", got)
	}

	// Both followers down: reads fail over to the primary, still no
	// caller-visible error.
	f2.failing.Store(true)
	resp, err := r.Query(ctx, "c", "q", 1)
	if err != nil {
		t.Fatal(err)
	}
	if servedBy(resp) != "primary" {
		t.Fatalf("served by %s, want primary", servedBy(resp))
	}
}

// TestRouterLocalValidationDoesNotEject: a batch the client refuses to
// send at all (empty, over-limit) is the caller's mistake; it must not
// be mistaken for per-replica transport failures and empty the rotation.
func TestRouterLocalValidationDoesNotEject(t *testing.T) {
	p := newFakeReplica(t, "primary")
	f1 := newFakeReplica(t, "f1")
	f2 := newFakeReplica(t, "f2")
	r := client.NewRouter(p.ts.URL, []string{f1.ts.URL, f2.ts.URL}, nil)
	ctx := context.Background()
	r.Probe(ctx)
	if _, err := r.QueryBatch(ctx, "c", nil, 1); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := r.QueryBatch(ctx, "c", make([]string, api.MaxBatch+1), 1); err == nil {
		t.Fatal("oversized batch accepted")
	}
	if got := r.Live(); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("local validation emptied the rotation: live = %v", got)
	}
	if f1.queries.Load() != 0 || f2.queries.Load() != 0 || p.queries.Load() != 0 {
		t.Fatal("a locally invalid batch reached a backend")
	}
}

// TestRouterClientErrorDoesNotFailOver: a 4xx is the caller's mistake;
// it returns immediately and ejects nobody.
func TestRouterClientErrorDoesNotFailOver(t *testing.T) {
	h := newHarness(t) // real engine: produces genuine 404s
	f := replica.NewFollower(h.ts.URL, h.ts.Client())
	f.PollWait = 100 * time.Millisecond
	f.Backoff = 20 * time.Millisecond
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	fsrv := server.New(f.Engine())
	fsrv.SetFollower(f)
	fts := httptest.NewServer(fsrv)
	defer fts.Close()

	r := client.NewRouter(h.ts.URL, []string{fts.URL}, nil)
	ctx := context.Background()
	// Force the follower live despite lag: poll once against a quiet
	// primary.
	go f.Run(ctx) //nolint:errcheck
	waitReady(t, f)
	if live := r.Probe(ctx); live != 1 {
		t.Fatalf("live = %d, want 1", live)
	}

	_, err := r.Query(ctx, "classmate", "Nobody", 3)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeNodeNotFound {
		t.Fatalf("error = %v, want node_not_found", err)
	}
	if got := r.Live(); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("4xx ejected the follower: live = %v", got)
	}
}

// waitReady blocks until the follower reports ready.
func waitReady(t testing.TB, f *replica.Follower) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if f.Status().Ready {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("follower never became ready")
}

// waitApplied blocks until f is ready AND has applied the log through lsn.
// Readiness alone is as of the follower's last poll, which may predate the
// writes a test just made.
func waitApplied(t testing.TB, f *replica.Follower, lsn uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if st := f.Status(); st.Ready && st.Applied >= lsn {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower never applied LSN %d: %+v", lsn, f.Status())
}

// routedHarness is the full in-process routed-serving stack the ISSUE's
// acceptance criteria name: one durable primary, two real followers
// streaming its WAL, and a Router over all three.
type routedHarness struct {
	h         *harness
	followers []*replica.Follower
	fservers  []*httptest.Server
	router    *client.Router
	cancel    context.CancelFunc
}

func newRoutedHarness(t *testing.T, nFollowers int) *routedHarness {
	t.Helper()
	h := newHarness(t)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	rh := &routedHarness{h: h, cancel: cancel}
	var urls []string
	for i := 0; i < nFollowers; i++ {
		f := replica.NewFollower(h.ts.URL, h.ts.Client())
		f.PollWait = 200 * time.Millisecond
		f.Backoff = 20 * time.Millisecond
		if err := f.Bootstrap(ctx); err != nil {
			t.Fatal(err)
		}
		go f.Run(ctx) //nolint:errcheck
		fsrv := server.New(f.Engine())
		fsrv.SetFollower(f)
		fts := httptest.NewServer(fsrv)
		t.Cleanup(fts.Close)
		rh.followers = append(rh.followers, f)
		rh.fservers = append(rh.fservers, fts)
		urls = append(urls, fts.URL)
	}
	rh.router = client.NewRouter(h.ts.URL, urls, nil)
	return rh
}

// waitAllReady probes until every follower is caught up and in rotation.
func (rh *routedHarness) waitAllReady(t *testing.T) {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if rh.router.Probe(ctx) == len(rh.followers) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("only %d/%d followers ever became ready", rh.router.Probe(ctx), len(rh.followers))
}

// TestRoutedEqualsDirectUnderConcurrentUpdates is the acceptance
// criterion's first half: reader goroutines hammer the Router while the
// primary applies live updates (run with -race via make test) — every
// routed read must succeed — and at quiescence every routed query is
// element-identical to the same query asked of the primary directly.
func TestRoutedEqualsDirectUnderConcurrentUpdates(t *testing.T) {
	rh := newRoutedHarness(t, 2)
	rh.waitAllReady(t)
	ctx, stopProbe := context.WithCancel(context.Background())
	defer stopProbe()
	rh.router.ProbeInterval = 20 * time.Millisecond
	go rh.router.Run(ctx) //nolint:errcheck

	var failed atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			names := []string{"Kate", "Bob", "Alice", "Jay", "Tom"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := names[(w+i)%len(names)]
				if _, err := rh.router.Query(ctx, "classmate", name, 5); err != nil {
					t.Errorf("routed query %s: %v", name, err)
					failed.Add(1)
					return
				}
				if _, err := rh.router.Proximity(ctx, "classmate", name, "Kate"); err != nil {
					t.Errorf("routed proximity %s: %v", name, err)
					failed.Add(1)
					return
				}
			}
		}(w)
	}
	// Live updates through the router (pinned to the primary) while the
	// readers run.
	for i := 0; i < 5; i++ {
		_, err := rh.router.Update(ctx, api.UpdateRequest{
			Nodes: []api.UpdateNode{{Type: "user", Name: fmt.Sprintf("live-%d", i)}},
			Edges: []api.UpdateEdge{{U: fmt.Sprintf("live-%d", i), V: "Kate"}},
		})
		if err != nil {
			t.Fatalf("routed update %d: %v", i, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d routed reads failed during concurrent updates", failed.Load())
	}

	// Quiesce, then: routed == direct, element for element, for every
	// user — including the live-added ones — however the rotation lands.
	for _, f := range rh.followers {
		waitReady(t, f)
	}
	rh.waitAllReady(t)
	direct := client.New(rh.h.ts.URL, rh.h.ts.Client())
	g := rh.h.eng.Graph()
	users := g.NodesOfType(g.Types().ID("user"))
	for _, q := range users {
		name := g.Name(q)
		want, err := direct.Query(ctx, "classmate", name, 10)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ { // hit every replica in rotation
			got, err := rh.router.Query(ctx, "classmate", name, 10)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("routed query %q diverged from direct:\n got %+v\nwant %+v", name, got, want)
			}
		}
	}
	// The spread was real: every follower served reads.
	counts := rh.router.Counts()
	for _, fts := range rh.fservers {
		if counts[fts.URL] == 0 {
			t.Fatalf("follower %s served nothing: %v", fts.URL, counts)
		}
	}
}

// TestFailoverPrimaryDeath is the acceptance criterion's second half:
// killing the primary mid-stream leaves read traffic flowing through the
// caught-up followers with zero failed requests.
func TestFailoverPrimaryDeath(t *testing.T) {
	rh := newRoutedHarness(t, 2)
	ctx := context.Background()

	// Some writes first, so the followers hold real replicated state.
	for i := 0; i < 3; i++ {
		if _, err := rh.router.Update(ctx, api.UpdateRequest{
			Nodes: []api.UpdateNode{{Type: "user", Name: fmt.Sprintf("pre-%d", i)}},
			Edges: []api.UpdateEdge{{U: fmt.Sprintf("pre-%d", i), V: "Alice"}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range rh.followers {
		waitApplied(t, f, rh.h.eng.LSN())
	}
	rh.waitAllReady(t)

	// Reference answers while everything is alive.
	type ref struct {
		name string
		want api.QueryResponse
	}
	g := rh.h.eng.Graph()
	var refs []ref
	for _, q := range g.NodesOfType(g.Types().ID("user")) {
		name := g.Name(q)
		want, err := rh.router.Query(ctx, "classmate", name, 10)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref{name, want})
	}

	// Kill the primary. No probe runs in between: the router must ride on
	// its last live set and the failover path alone.
	rh.h.ts.Close()

	for round := 0; round < 3; round++ {
		for _, rf := range refs {
			got, err := rh.router.Query(ctx, "classmate", rf.name, 10)
			if err != nil {
				t.Fatalf("read %q failed after primary death: %v", rf.name, err)
			}
			if !reflect.DeepEqual(got, rf.want) {
				t.Fatalf("read %q drifted after primary death:\n got %+v\nwant %+v", rf.name, got, rf.want)
			}
		}
	}
	// Probing with the primary dead keeps the caught-up followers in
	// rotation (their readiness state is their own, not the primary's).
	if live := rh.router.Probe(ctx); live != 2 {
		t.Fatalf("live after primary death = %d, want 2", live)
	}
	// Writes, of course, now fail — the primary owns them.
	if _, err := rh.router.Update(ctx, api.UpdateRequest{
		Nodes: []api.UpdateNode{{Type: "user", Name: "orphan"}},
	}); err == nil {
		t.Fatal("update succeeded with a dead primary")
	}
}

// TestRouterNoFollowersDegradesToPrimary: a router over a bare primary
// behaves like a plain client.
func TestRouterNoFollowersDegradesToPrimary(t *testing.T) {
	h := newHarness(t)
	r := client.NewRouter(h.ts.URL, nil, nil)
	ctx := context.Background()
	if live := r.Probe(ctx); live != 0 {
		t.Fatalf("live = %d, want 0", live)
	}
	resp, err := r.Query(ctx, "classmate", "Kate", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Query != "Kate" {
		t.Fatalf("response = %+v", resp)
	}
	if _, err := r.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if r.Counts()[h.ts.URL] != 1 {
		t.Fatalf("counts = %v", r.Counts())
	}
	if got := len(r.Followers()); got != 0 || r.Primary() == nil {
		t.Fatalf("accessors: %d followers", got)
	}
}

// TestRouterQueryBatchAndRun covers the batched read path and the
// background probe loop end to end.
func TestRouterQueryBatchAndRun(t *testing.T) {
	rh := newRoutedHarness(t, 1)
	for _, f := range rh.followers {
		waitReady(t, f)
	}
	rh.router.ProbeInterval = 10 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- rh.router.Run(ctx) }()

	deadline := time.Now().Add(5 * time.Second)
	for len(rh.router.Live()) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if len(rh.router.Live()) != 1 {
		t.Fatalf("Run never admitted the follower: live = %v", rh.router.Live())
	}

	direct := client.New(rh.h.ts.URL, rh.h.ts.Client())
	want, err := direct.QueryBatch(ctx, "classmate", []string{"Kate", "Bob"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rh.router.QueryBatch(ctx, "classmate", []string{"Kate", "Bob"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("routed batch diverged:\n got %+v\nwant %+v", got, want)
	}

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v", err)
	}
}
