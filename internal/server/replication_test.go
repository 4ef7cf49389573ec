package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	semprox "repro"
	"repro/api"
	"repro/internal/engine"
	"repro/internal/fixtures"
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

// TestDrainEndsLongPolls: a since poll waiting for records answers an
// empty batch at once when the server drains, and so does every poll that
// arrives after — a shutdown waits for requests, never for a poll's wait.
func TestDrainEndsLongPolls(t *testing.T) {
	s, _, _, _ := walServer(t)
	poll := func() <-chan *httptest.ResponseRecorder {
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, api.PathReplicateSince+"?lsn=0&wait_ms=20000", nil))
			done <- rec
		}()
		return done
	}
	waiting := poll()
	time.Sleep(100 * time.Millisecond) // let it reach the wait
	start := time.Now()
	s.Drain()
	for _, done := range []<-chan *httptest.ResponseRecorder{waiting, poll()} {
		select {
		case rec := <-done:
			var sr api.SinceResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &sr); rec.Code != http.StatusOK || err != nil || len(sr.Records) != 0 {
				t.Fatalf("drained poll: %d %s (%v)", rec.Code, rec.Body, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a long poll outlived the drain")
		}
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("the polls took %v to end after the drain", d)
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

// snapshotMagic opens semprox's snapshot stream (fixtures.WithEveryCount
// refuses any other, so a format change fails this test loudly).
const snapshotMagic = "SPXS\x0e"

// TestRefusedUpdateAnswersAlikeOnEveryRole: an update the engine refuses
// (here: every count it would add to is already 2^32-1) gets one answer
// whether or not the server logs its updates — 400 bad_request with the
// engine's reason — and on a WAL primary it never reaches the log: the
// next LSN does not move and the directory holds only its segment.
func TestRefusedUpdateAnswersAlikeOnEveryRole(t *testing.T) {
	g, a, b, c := fixtures.SharedSchool()
	opts := semprox.DefaultOptions()
	opts.Train.Restarts, opts.Train.MaxIters = 1, 5
	eng := engine.New(g, g.Types().ID("user"), fixtures.SharedSchoolMetagraphs(g), opts)
	eng.Train("peers", []semprox.Example{{Q: a, X: b, Y: c}})
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := fixtures.WithEveryCount(t, buf.Bytes(), snapshotMagic, math.MaxUint32)
	load := func() (*Server, *semprox.Engine) {
		eng, err := semprox.LoadEngine(bytes.NewReader(full))
		if err != nil {
			t.Fatal(err)
		}
		return New(eng), eng
	}
	standalone, _ := load()
	primary, peng := load()
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{BaseLSN: peng.LSN()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	primary.AttachWAL(w)
	var before bytes.Buffer
	if err := peng.Save(&before); err != nil {
		t.Fatal(err)
	}
	stats, next := peng.Stats(), w.NextLSN()

	const enrol = `{"nodes":[{"type":"school","name":"new-0"}],"edges":[{"u":"A","v":"new-0"},{"u":"B","v":"new-0"}]}`
	var answers []string
	for _, s := range []*Server{standalone, primary} {
		rec := do(t, s, http.MethodPost, api.PathUpdate, enrol)
		wantErr(t, rec, http.StatusBadRequest, api.CodeBadRequest)
		if !strings.Contains(rec.Body.String(), "overflow") {
			t.Fatalf("refusal does not carry the engine's reason: %s", rec.Body.String())
		}
		answers = append(answers, rec.Body.String())
	}
	if answers[0] != answers[1] {
		t.Fatalf("standalone and WAL primary answer differently:\n%s\n%s", answers[0], answers[1])
	}

	if got := w.NextLSN(); got != next {
		t.Fatalf("refused update moved the log's next LSN %d → %d", next, got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !strings.HasSuffix(entries[0].Name(), ".seg") {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("log directory holds %v, want only its segment", names)
	}
	var after bytes.Buffer
	if err := peng.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(peng.Stats(), stats) || !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("refused update changed the primary's engine: %+v, was %+v", peng.Stats(), stats)
	}
}

// TestPrimaryUpdateFailuresAre500: on a WAL primary an update the engine
// accepted but the log could not take, and a log whose next LSN is not
// beyond the engine's, are the server's fault, not the request's: both
// answer 500 and publish nothing, and the out-of-step log is refused
// before anything is appended to it.
func TestPrimaryUpdateFailuresAre500(t *testing.T) {
	const join = `{"nodes":[{"type":"user","name":"Zed"}],"edges":[{"u":"Zed","v":"Kate"}]}`
	t.Run("append fails", func(t *testing.T) {
		s, w, eng, _ := walServer(t)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		rec := do(t, s, http.MethodPost, api.PathUpdate, join)
		wantErr(t, rec, http.StatusInternalServerError, api.CodeInternal)
		if !strings.Contains(rec.Body.String(), "wal append") || eng.LSN() != 0 || eng.Epoch() != 0 {
			t.Fatalf("failed append answered %s and left the engine at LSN %d epoch %d, want LSN 0 epoch 0", rec.Body.String(), eng.LSN(), eng.Epoch())
		}
	})
	t.Run("log behind engine", func(t *testing.T) {
		s, eng, g := trainedServer(t)
		if _, err := eng.ApplyUpdate(semprox.Delta{Edges: []graph.Edge{{U: g.NodeByName("Kate"), V: g.NodeByName("Tom")}}}); err != nil {
			t.Fatal(err)
		}
		w, err := wal.Open(t.TempDir(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		s.AttachWAL(w)
		rec := do(t, s, http.MethodPost, api.PathUpdate, join)
		wantErr(t, rec, http.StatusInternalServerError, api.CodeInternal)
		if w.NextLSN() != 1 || eng.LSN() != 1 || eng.Graph().NodeByName("Zed") != graph.InvalidNode {
			t.Fatalf("out-of-step log: next LSN %d, engine LSN %d, Zed present %v; want 1, 1, false",
				w.NextLSN(), eng.LSN(), eng.Graph().NodeByName("Zed") != graph.InvalidNode)
		}
	})
}
