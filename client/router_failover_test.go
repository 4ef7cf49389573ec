package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/api"
	"repro/client"
)

// fakeNode is a stub backend whose role and term are togglable — enough
// to act out a promotion (follower -> primary at a higher term) and a
// deposed zombie without a real replication stack.
type fakeNode struct {
	ts      *httptest.Server
	role    atomic.Value // api.RolePrimary / api.RoleFollower
	term    atomic.Uint64
	ready   atomic.Bool
	upFail  atomic.Bool // update answers 500 internal (ambiguous failure)
	updates atomic.Int64
	lsn     atomic.Uint64
}

func newFakeNode(t *testing.T, role string, term uint64) *fakeNode {
	t.Helper()
	n := &fakeNode{}
	n.role.Store(role)
	n.term.Store(term)
	n.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathReadyz, func(w http.ResponseWriter, r *http.Request) {
		resp := api.ReadyResponse{Status: api.StatusReady, Role: n.role.Load().(string), Term: n.term.Load()}
		code := http.StatusOK
		if !n.ready.Load() {
			resp.Status = api.StatusCatchingUp
			code = http.StatusServiceUnavailable
		}
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(resp) //nolint:errcheck
	})
	mux.HandleFunc(api.PathUpdate, func(w http.ResponseWriter, r *http.Request) {
		n.updates.Add(1)
		switch {
		case n.role.Load().(string) != api.RolePrimary:
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(api.ErrorEnvelope{ //nolint:errcheck
				Error: api.Error{Code: api.CodeNotPrimary, Message: "read-only replica"}})
		case n.upFail.Load():
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(api.ErrorEnvelope{ //nolint:errcheck
				Error: api.Error{Code: api.CodeInternal, Message: "durable locally but unconfirmed"}})
		default:
			json.NewEncoder(w).Encode(api.UpdateResponse{LSN: n.lsn.Add(1)}) //nolint:errcheck
		}
	})
	n.ts = httptest.NewServer(mux)
	t.Cleanup(n.ts.Close)
	return n
}

// eventLog collects Router events safely across goroutines.
type eventLog struct {
	mu     sync.Mutex
	events []client.Event
}

func (l *eventLog) record(ev client.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, ev)
}

// find returns the first recorded event of the given type about url.
func (l *eventLog) find(typ, url string) (client.Event, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ev := range l.events {
		if ev.Type == typ && ev.URL == url {
			return ev, true
		}
	}
	return client.Event{}, false
}

// TestRouterFollowsPromotion acts out the full failover from the
// router's seat: the configured primary dies, a follower shows up as
// primary at term 2 — writes re-route there without restarting the
// router, the promoted node leaves the READ rotation, and the remaining
// term-1 follower is ejected as stale until it reports the new term.
// Every transition surfaces through OnEvent.
func TestRouterFollowsPromotion(t *testing.T) {
	p := newFakeNode(t, api.RolePrimary, 1)
	f1 := newFakeNode(t, api.RoleFollower, 1)
	f2 := newFakeNode(t, api.RoleFollower, 1)
	r := client.NewRouter(p.ts.URL, []string{f1.ts.URL, f2.ts.URL}, nil)
	log := &eventLog{}
	r.OnEvent = log.record
	ctx := context.Background()

	if live := r.Probe(ctx); live != 2 {
		t.Fatalf("live = %d, want 2", live)
	}
	for _, f := range []*fakeNode{f1, f2} {
		if _, ok := log.find(client.EventAdmit, f.ts.URL); !ok {
			t.Fatalf("no admit event for %s: %+v", f.ts.URL, log.events)
		}
	}
	if _, err := r.Update(ctx, api.UpdateRequest{Nodes: []api.UpdateNode{{Type: "user", Name: "a"}}}); err != nil {
		t.Fatal(err)
	}
	if p.updates.Load() != 1 {
		t.Fatal("pre-failover update missed the configured primary")
	}

	// The primary dies; f1 is promoted at term 2.
	p.ts.Close()
	f1.role.Store(api.RolePrimary)
	f1.term.Store(2)
	if live := r.Probe(ctx); live != 0 {
		t.Fatalf("live after promotion = %d, want 0 (f1 is primary now, f2 is stale)", live)
	}
	if ev, ok := log.find(client.EventPrimaryChange, f1.ts.URL); !ok || ev.Term != 2 {
		t.Fatalf("no primary_change to %s at term 2: %+v", f1.ts.URL, log.events)
	}
	if _, ok := log.find(client.EventEject, f2.ts.URL); !ok {
		t.Fatalf("stale-term follower %s not ejected: %+v", f2.ts.URL, log.events)
	}
	if got := r.Primary().BaseURL(); got != f1.ts.URL {
		t.Fatalf("resolved primary = %s, want %s", got, f1.ts.URL)
	}
	if _, err := r.Update(ctx, api.UpdateRequest{Nodes: []api.UpdateNode{{Type: "user", Name: "b"}}}); err != nil {
		t.Fatalf("post-failover update: %v", err)
	}
	if f1.updates.Load() != 1 {
		t.Fatal("post-failover update missed the promoted primary")
	}

	// f2 reaches the new term: back in rotation.
	f2.term.Store(2)
	if live := r.Probe(ctx); live != 1 {
		t.Fatalf("live after f2 caught up = %d, want 1", live)
	}
}

// TestRouterUpdateRetriesOnlyProvenFailures: an update refused with 503
// not_primary (the backend proved it applied nothing) triggers one
// re-probe-and-retry at the newly resolved primary; an ambiguous 5xx —
// the backend may have applied the write — is returned to the caller
// with no retry anywhere.
func TestRouterUpdateRetriesOnlyProvenFailures(t *testing.T) {
	// The configured primary was deposed and rejoined as a follower; the
	// real primary is f1 at term 2. No probe has run.
	p := newFakeNode(t, api.RoleFollower, 2)
	f1 := newFakeNode(t, api.RolePrimary, 2)
	r := client.NewRouter(p.ts.URL, []string{f1.ts.URL}, nil)
	ctx := context.Background()
	resp, err := r.Update(ctx, api.UpdateRequest{Nodes: []api.UpdateNode{{Type: "user", Name: "x"}}})
	if err != nil {
		t.Fatalf("update did not follow the not_primary redirect: %v", err)
	}
	if resp.LSN != 1 || f1.updates.Load() != 1 {
		t.Fatalf("retry did not land on the real primary: resp %+v, f1 saw %d", resp, f1.updates.Load())
	}

	// Ambiguous failure: the resolved primary 500s. One attempt, no retry.
	f1.upFail.Store(true)
	if _, err := r.Update(ctx, api.UpdateRequest{Nodes: []api.UpdateNode{{Type: "user", Name: "y"}}}); err == nil {
		t.Fatal("ambiguous 5xx reported success")
	}
	if got := f1.updates.Load(); got != 2 {
		t.Fatalf("ambiguous failure was retried: primary saw %d updates, want 2", got)
	}
	if got := p.updates.Load(); got != 1 {
		t.Fatalf("ambiguous failure retried on another backend: %d", got)
	}
}

// TestRouterNeverEjectsThePrimary: a failed read of the resolved primary
// — here a promoted follower, which left the read rotation on promotion —
// emits no eject, through the built-in read path and through ReportRead
// alike: probes own the primary's fate.
func TestRouterNeverEjectsThePrimary(t *testing.T) {
	p := newFakeNode(t, api.RolePrimary, 1)
	f := newFakeNode(t, api.RoleFollower, 1)
	r := client.NewRouter(p.ts.URL, []string{f.ts.URL}, nil)
	ctx := context.Background()
	if live := r.Probe(ctx); live != 1 {
		t.Fatalf("live = %d, want 1", live)
	}
	p.ts.Close()
	f.role.Store(api.RolePrimary)
	f.term.Store(2)
	if live := r.Probe(ctx); live != 0 {
		t.Fatalf("live after promotion = %d, want 0", live)
	}
	if got := r.Primary().BaseURL(); got != f.ts.URL {
		t.Fatalf("resolved primary = %s, want %s", got, f.ts.URL)
	}

	log := &eventLog{}
	r.OnEvent = log.record
	f.ts.Close()
	if _, err := r.Query(ctx, "c", "q", 1); err == nil {
		t.Fatal("read of a closed primary succeeded")
	}
	targets := r.ReadTargets(2)
	if len(targets) != 1 || targets[0] != r.Primary() {
		t.Fatalf("targets = %v, want just the primary", targets)
	}
	r.ReportRead(targets[0], errors.New("connection refused"))
	if ev, ok := log.find(client.EventEject, f.ts.URL); ok {
		t.Fatalf("primary ejected by a failed read: %+v", ev)
	}
}
