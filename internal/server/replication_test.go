package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	semprox "repro"
	"repro/api"
	"repro/internal/graph"
	"repro/internal/replica"
	"repro/internal/wal"
)

// walServer is trainedServer with a WAL attached: the durable primary
// configuration of semproxd -wal.
func walServer(t *testing.T) (*Server, *wal.WAL, *semprox.Engine, *semprox.Graph) {
	t.Helper()
	s, eng, g := trainedServer(t)
	w, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	s.AttachWAL(w)
	return s, w, eng, g
}

func TestReadyzStandalone(t *testing.T) {
	s, _, _ := trainedServer(t)
	rec := do(t, s, http.MethodGet, api.PathReadyz, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var body api.ReadyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ready" || body.Role != "standalone" || body.Lag != 0 {
		t.Fatalf("readyz = %+v", body)
	}
}

func TestReplicationDisabledWithoutWAL(t *testing.T) {
	s, _, _ := trainedServer(t)
	wantErr(t, do(t, s, http.MethodGet, api.PathReplicateSince+"?lsn=0", ""),
		http.StatusServiceUnavailable, "replication_disabled")
	wantErr(t, do(t, s, http.MethodGet, api.PathReplicateSnapshot, ""),
		http.StatusServiceUnavailable, "replication_disabled")
}

// TestUpdateDurableAndReplicated drives one update through the durable
// path and reads it back over every surface: the response LSN, /stats,
// /readyz (primary role), the WAL itself, and /replicate/since.
func TestUpdateDurableAndReplicated(t *testing.T) {
	s, w, eng, _ := walServer(t)

	rec := do(t, s, http.MethodPost, api.PathUpdate,
		`{"nodes":[{"type":"user","name":"zoe"}],"edges":[{"u":"zoe","v":"Kate"}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("update status = %d (%s)", rec.Code, rec.Body.String())
	}
	var ur api.UpdateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ur); err != nil {
		t.Fatal(err)
	}
	if ur.LSN != 1 || ur.Epoch != 1 {
		t.Fatalf("update response = %+v, want LSN 1 epoch 1", ur)
	}
	if w.DurableLSN() != 1 {
		t.Fatalf("wal durable = %d, want 1", w.DurableLSN())
	}
	if eng.LSN() != 1 {
		t.Fatalf("engine LSN = %d, want 1", eng.LSN())
	}

	rec = do(t, s, http.MethodGet, api.PathStats, "")
	var st api.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.LSN != 1 {
		t.Fatalf("stats LSN = %d, want 1", st.LSN)
	}

	rec = do(t, s, http.MethodGet, api.PathReadyz, "")
	var rr api.ReadyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Role != "primary" || rr.Status != "ready" || rr.LSN != 1 {
		t.Fatalf("readyz = %+v", rr)
	}

	// The logged record replays to the same delta the handler resolved.
	rec = do(t, s, http.MethodGet, api.PathReplicateSince+"?lsn=0", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("since status = %d (%s)", rec.Code, rec.Body.String())
	}
	var sr struct {
		From    uint64 `json:"from"`
		LastLSN uint64 `json:"last_lsn"`
		Records []struct {
			LSN   uint64 `json:"lsn"`
			Delta []byte `json:"delta"`
		} `json:"records"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.LastLSN != 1 || len(sr.Records) != 1 || sr.Records[0].LSN != 1 {
		t.Fatalf("since = %+v", sr)
	}
	d, err := graph.DecodeDelta(sr.Records[0].Delta)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Nodes) != 1 || d.Nodes[0].Value != "zoe" || len(d.Edges) != 1 {
		t.Fatalf("replicated delta = %+v", d)
	}

	// Caught-up poll: empty records, last_lsn tells the follower where
	// the primary is.
	rec = do(t, s, http.MethodGet, api.PathReplicateSince+"?lsn=1", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Records) != 0 || sr.LastLSN != 1 {
		t.Fatalf("caught-up since = %+v", sr)
	}
}

func TestReplicateSnapshotStreamsEngine(t *testing.T) {
	s, _, eng, g := walServer(t)
	rec := do(t, s, http.MethodGet, api.PathReplicateSnapshot, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	loaded, err := semprox.LoadEngine(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	q := g.NodeByName("Kate")
	want, _ := eng.Query("classmate", q, 5)
	got, err := loaded.Query("classmate", q, 5)
	if err != nil || len(got) != len(want) {
		t.Fatalf("loaded snapshot query: %v (%d vs %d results)", err, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestReplicateSinceBadParams(t *testing.T) {
	s, _, _, _ := walServer(t)
	wantErr(t, do(t, s, http.MethodGet, api.PathReplicateSince, ""), http.StatusBadRequest, "bad_request")
	wantErr(t, do(t, s, http.MethodGet, api.PathReplicateSince+"?lsn=x", ""), http.StatusBadRequest, "bad_request")
	wantErr(t, do(t, s, http.MethodGet, api.PathReplicateSince+"?lsn=0&max=0", ""), http.StatusBadRequest, "bad_request")
	wantErr(t, do(t, s, http.MethodGet, api.PathReplicateSince+"?lsn=0&wait_ms=-1", ""), http.StatusBadRequest, "bad_request")
	wantErr(t, do(t, s, http.MethodPost, api.PathReplicateSince+"?lsn=0", "{}"), http.StatusMethodNotAllowed, "method_not_allowed")
}

// TestReadyzWALFailed: a primary whose log can no longer accept appends
// (sticky I/O failure, or closed) keeps serving reads but must drop
// readiness, so load balancers stop routing writes to it.
func TestReadyzWALFailed(t *testing.T) {
	s, w, _, _ := walServer(t)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec := do(t, s, http.MethodGet, api.PathReadyz, "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz on a write-dead primary = %d, want 503", rec.Code)
	}
	var rr api.ReadyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Status != "wal_failed" || rr.Role != "primary" {
		t.Fatalf("readyz = %+v", rr)
	}
}

// TestFollowerRebootstrapSwapsServedEngine: Follower.Run re-bootstraps on
// divergence, swapping in a brand-new engine; the server must serve the
// follower's CURRENT engine, not the one captured at New — otherwise
// /query, /stats and /healthz would freeze at the pre-bootstrap state
// while /readyz (computed from the live follower) reports ready.
func TestFollowerRebootstrapSwapsServedEngine(t *testing.T) {
	ps, _, peng, _ := walServer(t)
	pts := httptest.NewServer(ps)
	defer pts.Close()

	f := replica.NewFollower(pts.URL, pts.Client())
	ctx := context.Background()
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	fsrv := New(f.Engine())
	fsrv.SetFollower(f)
	oldNodes := f.Engine().Graph().NumNodes()

	// The primary moves on (LSN 1) while the follower is detached; a
	// second Bootstrap — what Run does after a stream gap — installs a
	// fresh engine at the primary's new state.
	rec := do(t, ps, http.MethodPost, api.PathUpdate,
		`{"nodes":[{"type":"user","name":"zoe"}],"edges":[{"u":"zoe","v":"Kate"}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("primary update = %d (%s)", rec.Code, rec.Body.String())
	}
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if f.Engine().LSN() != peng.LSN() {
		t.Fatalf("re-bootstrap at LSN %d, primary at %d", f.Engine().LSN(), peng.LSN())
	}

	// Every read surface serves the re-bootstrapped engine.
	var st api.StatsResponse
	if err := json.Unmarshal(do(t, fsrv, http.MethodGet, api.PathStats, "").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.LSN != peng.LSN() || st.Nodes != oldNodes+1 {
		t.Fatalf("follower /stats = LSN %d nodes %d, want LSN %d nodes %d (stale engine served?)",
			st.LSN, st.Nodes, peng.LSN(), oldNodes+1)
	}
	var hr api.HealthResponse
	if err := json.Unmarshal(do(t, fsrv, http.MethodGet, api.PathHealthz, "").Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Nodes != oldNodes+1 {
		t.Fatalf("follower /healthz nodes = %d, want %d", hr.Nodes, oldNodes+1)
	}
	if rec := do(t, fsrv, http.MethodGet, api.PathQuery+"?class=classmate&query=zoe&k=3", ""); rec.Code != http.StatusOK {
		t.Fatalf("follower /query for a post-bootstrap node = %d (%s)", rec.Code, rec.Body.String())
	}
}

// TestFollowerServerIsReadOnly: a server flagged as follower refuses
// /update and reports catching_up on /readyz until its follower is
// bootstrapped and caught up.
func TestFollowerServerIsReadOnly(t *testing.T) {
	s, _, _ := trainedServer(t)
	s.SetFollower(replica.NewFollower("http://primary.example:8080", nil))
	wantErr(t, do(t, s, http.MethodPost, api.PathUpdate,
		`{"nodes":[{"type":"user","name":"zoe"}]}`), http.StatusServiceUnavailable, "not_primary")

	rec := do(t, s, http.MethodGet, api.PathReadyz, "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz on unbootstrapped follower = %d, want 503", rec.Code)
	}
	var rr api.ReadyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Status != "catching_up" || rr.Role != "follower" {
		t.Fatalf("readyz = %+v", rr)
	}
}
