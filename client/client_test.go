package client_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	semprox "repro"
	"repro/api"
	"repro/client"
	"repro/internal/fixtures"
	"repro/internal/mining"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wal"
)

// harness is a trained durable primary behind a real HTTP server — the
// stack the client is built to speak to.
type harness struct {
	eng *semprox.Engine
	g   *semprox.Graph
	log *wal.WAL
	srv *server.Server
	ts  *httptest.Server
}

func newHarness(t testing.TB) *harness {
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
	w, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	srv := server.New(eng)
	srv.AttachWAL(w)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &harness{eng: eng, g: g, log: w, srv: srv, ts: ts}
}

func (h *harness) client() *client.Client { return client.New(h.ts.URL, h.ts.Client()) }

func TestQueryMatchesEngine(t *testing.T) {
	h := newHarness(t)
	c := h.client()
	ctx := context.Background()
	want, err := h.eng.Query("classmate", h.g.NodeByName("Kate"), 5)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Query(ctx, "classmate", "Kate", 5)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Class != "classmate" || resp.K != 5 || len(resp.Results) != 1 {
		t.Fatalf("response = %+v", resp)
	}
	got := resp.Results[0].Results
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i, r := range got {
		if semprox.NodeID(r.Node) != want[i].Node || r.Score != want[i].Score ||
			r.Name != h.g.Name(want[i].Node) {
			t.Fatalf("result[%d] = %+v, want %+v", i, r, want[i])
		}
	}
}

func TestQueryBatchMatchesEngine(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()
	names := []string{"Kate", "Bob", "Alice"}
	qs := make([]semprox.NodeID, len(names))
	for i, n := range names {
		qs[i] = h.g.NodeByName(n)
	}
	want, err := h.eng.QueryBatch("classmate", qs, 3)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := h.client().QueryBatch(ctx, "classmate", names, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(names) {
		t.Fatalf("%d rankings, want %d", len(resp.Results), len(names))
	}
	for i, qr := range resp.Results {
		if qr.Query != names[i] || len(qr.Results) != len(want[i]) {
			t.Fatalf("ranking[%d] = %+v", i, qr)
		}
		for j, r := range qr.Results {
			if semprox.NodeID(r.Node) != want[i][j].Node || r.Score != want[i][j].Score {
				t.Fatalf("ranking[%d][%d] = %+v, want %+v", i, j, r, want[i][j])
			}
		}
	}

	if _, err := h.client().QueryBatch(ctx, "classmate", nil, 3); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := h.client().QueryBatch(ctx, "classmate", make([]string, api.MaxBatch+1), 3); err == nil {
		t.Fatal("oversized batch sent")
	}
}

func TestProximityMatchesEngine(t *testing.T) {
	h := newHarness(t)
	want, err := h.eng.Proximity("classmate", h.g.NodeByName("Kate"), h.g.NodeByName("Jay"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := h.client().Proximity(context.Background(), "classmate", "Kate", "Jay")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Proximity != want || resp.X != "Kate" || resp.Y != "Jay" {
		t.Fatalf("proximity = %+v, want %v", resp, want)
	}
}

// TestStructuredErrors pins the error contract: every non-2xx with an
// envelope surfaces as *api.Error carrying the machine-readable code and
// the HTTP status.
func TestStructuredErrors(t *testing.T) {
	h := newHarness(t)
	c := h.client()
	ctx := context.Background()
	cases := []struct {
		name   string
		call   func() error
		status int
		code   string
	}{
		{"unknown class", func() error { _, err := c.Query(ctx, "nope", "Kate", 5); return err },
			http.StatusNotFound, api.CodeClassNotFound},
		{"unknown node", func() error { _, err := c.Query(ctx, "classmate", "Nobody", 5); return err },
			http.StatusNotFound, api.CodeNodeNotFound},
		{"negative k", func() error { _, err := c.Query(ctx, "classmate", "Kate", -3); return err },
			http.StatusNotFound, api.CodeNodeNotFound}, // -3 normalizes to 0 = default k; "Nobody" style mistakes dominate
		{"bad proximity", func() error { _, err := c.Proximity(ctx, "classmate", "Kate", "Nobody"); return err },
			http.StatusNotFound, api.CodeNodeNotFound},
		{"bad update", func() error {
			_, err := c.Update(ctx, api.UpdateRequest{Nodes: []api.UpdateNode{{Type: "starship", Name: "x"}}})
			return err
		}, http.StatusBadRequest, api.CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if tc.name == "negative k" {
				// Normalized to the default k: the call succeeds.
				if err != nil {
					t.Fatalf("negative k: %v", err)
				}
				return
			}
			var apiErr *api.Error
			if !errors.As(err, &apiErr) {
				t.Fatalf("error %v (%T) is not *api.Error", err, err)
			}
			if apiErr.Status != tc.status || apiErr.Code != tc.code {
				t.Fatalf("error = %+v, want status %d code %s", apiErr, tc.status, tc.code)
			}
		})
	}
}

func TestUpdateStatsHealthClassesReady(t *testing.T) {
	h := newHarness(t)
	c := h.client()
	ctx := context.Background()

	if _, err := c.Update(ctx, api.UpdateRequest{}); err == nil {
		t.Fatal("empty update sent")
	}
	big := api.UpdateRequest{Edges: make([]api.UpdateEdge, api.MaxUpdate+1)}
	if _, err := c.Update(ctx, big); err == nil {
		t.Fatal("oversized update sent")
	}

	ur, err := c.Update(ctx, api.UpdateRequest{
		Nodes: []api.UpdateNode{{Type: "user", Name: "zoe"}},
		Edges: []api.UpdateEdge{{U: "zoe", V: "Kate"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ur.LSN != 1 || ur.Epoch != 1 || ur.NodesAdded != 1 || ur.EdgesAdded != 1 {
		t.Fatalf("update = %+v", ur)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.LSN != 1 || st.Nodes != h.g.NumNodes()+1 {
		t.Fatalf("stats = %+v", st)
	}

	hr, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.Nodes != h.g.NumNodes()+1 {
		t.Fatalf("health = %+v", hr)
	}

	classes, err := c.Classes(ctx)
	if err != nil || !reflect.DeepEqual(classes, []string{"classmate"}) {
		t.Fatalf("classes = %v (%v)", classes, err)
	}

	ready, err := c.Ready(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !ready.Ready() || ready.Role != api.RolePrimary || ready.LSN != 1 {
		t.Fatalf("ready = %+v", ready)
	}
}

// TestReadyDecodes503 pins that a catching-up replica's 503 readyz body
// is a decoded response, not an error — the Router depends on reading
// lag from it.
func TestReadyDecodes503(t *testing.T) {
	h := newHarness(t)
	fsrv := server.New(h.eng)
	fsrv.SetFollower(replica.NewFollower(h.ts.URL, h.ts.Client()))
	fts := httptest.NewServer(fsrv)
	defer fts.Close()

	ready, err := client.New(fts.URL, fts.Client()).Ready(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ready.Ready() || ready.Status != api.StatusCatchingUp || ready.Role != api.RoleFollower {
		t.Fatalf("ready = %+v, want catching_up follower", ready)
	}
}

func TestReplicateSinceAndSnapshot(t *testing.T) {
	h := newHarness(t)
	c := h.client()
	ctx := context.Background()
	if _, err := c.Update(ctx, api.UpdateRequest{Nodes: []api.UpdateNode{{Type: "user", Name: "r1"}}}); err != nil {
		t.Fatal(err)
	}

	sr, err := c.ReplicateSince(ctx, 0, 0, 0, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sr.LastLSN != 1 || len(sr.Records) != 1 || sr.Records[0].LSN != 1 {
		t.Fatalf("since = %+v", sr)
	}

	// A caught-up long poll returns empty without erroring, even when the
	// wait exceeds the http.Client timeout (the client extends the
	// deadline past the poll).
	short := client.New(h.ts.URL, &http.Client{Timeout: 80 * time.Millisecond})
	sr, err = short.ReplicateSince(ctx, 1, 1, 1, 10, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Records) != 0 || sr.LastLSN != 1 {
		t.Fatalf("caught-up since = %+v", sr)
	}

	body, err := c.ReplicateSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()
	loaded, err := semprox.LoadEngine(body)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.LSN() != 1 {
		t.Fatalf("snapshot LSN = %d, want 1", loaded.LSN())
	}

	// Snapshot from a server with no WAL: the structured 503 surfaces.
	plain := httptest.NewServer(server.New(h.eng))
	defer plain.Close()
	_, err = client.New(plain.URL, plain.Client()).ReplicateSnapshot(ctx)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeReplicationDisabled {
		t.Fatalf("snapshot without WAL: %v", err)
	}
}

// TestRetryOn5xx: a read is retried through transient 5xx responses; a
// write is not; a 4xx is never retried.
func TestRetryOn5xx(t *testing.T) {
	var gets, posts, bads atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == api.PathStats:
			if gets.Add(1) < 3 {
				http.Error(w, "transient", http.StatusInternalServerError)
				return
			}
			fmt.Fprint(w, `{"epoch":7}`)
		case r.URL.Path == api.PathUpdate:
			posts.Add(1)
			http.Error(w, "down", http.StatusInternalServerError)
		default:
			bads.Add(1)
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprint(w, `{"error":{"code":"bad_request","message":"no"}}`)
		}
	}))
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	c.RetryBackoff = time.Millisecond
	ctx := context.Background()

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats after retries: %v", err)
	}
	if st.Epoch != 7 || gets.Load() != 3 {
		t.Fatalf("epoch %d after %d attempts, want 7 after 3", st.Epoch, gets.Load())
	}

	_, err = c.Update(ctx, api.UpdateRequest{Nodes: []api.UpdateNode{{Type: "user", Name: "x"}}})
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Status != 500 {
		t.Fatalf("update error = %v", err)
	}
	if posts.Load() != 1 {
		t.Fatalf("update attempted %d times, want 1 (writes never retry)", posts.Load())
	}

	_, err = c.Query(ctx, "c", "q", 1)
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeBadRequest {
		t.Fatalf("query error = %v", err)
	}
	if bads.Load() != 1 {
		t.Fatalf("4xx attempted %d times, want 1 (client errors never retry)", bads.Load())
	}
}

// TestRetriesExhausted: a persistently failing read surfaces the last
// 5xx as *api.Error after Retries+1 attempts.
func TestRetriesExhausted(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		http.Error(w, "wedged", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	c.Retries = 2
	c.RetryBackoff = time.Millisecond
	_, err := c.Stats(context.Background())
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("error = %v", err)
	}
	// The non-envelope body was synthesized into the internal code.
	if apiErr.Code != api.CodeInternal {
		t.Fatalf("code = %s, want %s", apiErr.Code, api.CodeInternal)
	}
	if n.Load() != 3 {
		t.Fatalf("%d attempts, want 3", n.Load())
	}
}

// TestTransportErrorSurfaces: a dead server yields a plain (non-api)
// error after the retries, and context cancellation cuts the loop short.
func TestTransportErrorSurfaces(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()
	c := client.New(url, nil)
	c.Retries = 1
	c.RetryBackoff = time.Millisecond
	if _, err := c.Stats(context.Background()); err == nil {
		t.Fatal("stats against a dead server succeeded")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Stats(ctx); err == nil {
		t.Fatal("stats with canceled context succeeded")
	}
}

func TestBaseURLTrimsSlash(t *testing.T) {
	c := client.New("http://x:1/", nil)
	if c.BaseURL() != "http://x:1" {
		t.Fatalf("base = %q", c.BaseURL())
	}
}

// TestResponseBodyMustBeOneValue pins the one intended behaviour change of
// the wire codec: a body is read whole and must be exactly one JSON value.
// Bytes after it other than whitespace — which the streaming Decoder the
// client used to run never looked at — are an undecodable response, on
// the codec's path (query) and on encoding/json's (stats) alike; bodies
// that are merely not in canonical form still decode.
func TestResponseBodyMustBeOneValue(t *testing.T) {
	body := map[string]string{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, body[r.URL.Path])
	}))
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	const query = `{"class":"c","k":1,"results":[{"query":"q","results":[{"node":1,"name":"n","score":0.5}]}]}`
	want := api.QueryResponse{Class: "c", K: 1, Results: []api.QueryResult{
		{Query: "q", Results: []api.RankedResult{{Node: 1, Name: "n", Score: 0.5}}}}}
	for name, b := range map[string]string{
		"canonical": query + "\n",
		"padded":    "  " + query + " \r\n\t",
		"indented":  "{\n  \"class\": \"c\",\n  \"k\": 1,\n  \"results\": [\n    {\"query\": \"q\", \"results\": [{\"node\": 1, \"name\": \"\\u006e\", \"score\": 5e-1}]}\n  ]\n}\n",
	} {
		body[api.PathQuery] = b
		got, err := c.Query(ctx, "c", "q", 1)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %+v, %v", name, got, err)
		}
	}

	body[api.PathQuery] = query + "\n{}"
	body[api.PathProximity] = `{"class":"c","x":"a","y":"b","proximity":1}x`
	body[api.PathStats] = `{"epoch":1} trailing`
	if _, err := c.Query(ctx, "c", "q", 1); err == nil {
		t.Error("query: a second value after the response was accepted")
	}
	if _, err := c.Proximity(ctx, "c", "a", "b"); err == nil {
		t.Error("proximity: trailing garbage was accepted")
	}
	if _, err := c.Stats(ctx); err == nil {
		t.Error("stats: trailing garbage was accepted")
	}
}
