package replica_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	semprox "repro"
	"repro/api"
	"repro/internal/fixtures"
	"repro/internal/graph"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wal"
)

// appendDurable appends d to w the way a primary does, AppendAsync then
// WaitDurable, and returns its LSN.
func appendDurable(t testing.TB, w *wal.WAL, d graph.Delta) uint64 {
	t.Helper()
	lsn, err := w.AppendAsync(d)
	if err == nil {
		err = w.WaitDurable(lsn)
	}
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

// primaryHarness is a trained engine with an attached WAL behind a real
// HTTP server — the exact stack semproxd -wal runs.
type primaryHarness struct {
	eng *semprox.Engine
	log *wal.WAL
	srv *server.Server
	ts  *httptest.Server
}

func newPrimaryHarness(t *testing.T) *primaryHarness {
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
	return &primaryHarness{eng: eng, log: w, srv: srv, ts: ts}
}

// applyRandom logs one random delta durably on the primary and applies it
// at the LSN the log assigned.
func (h *primaryHarness) applyRandom(t *testing.T, rng *rand.Rand, tag string) {
	t.Helper()
	types := []string{"user", "school", "hobby"}
	var d graph.Delta
	for i := 1 + rng.Intn(2); i > 0; i-- {
		d.Nodes = append(d.Nodes, graph.DeltaNode{
			Type:  types[rng.Intn(len(types))],
			Value: fmt.Sprintf("%s-%d", tag, i),
		})
	}
	n := h.eng.Graph().NumNodes() + len(d.Nodes)
	for i := 1 + rng.Intn(4); i > 0; i-- {
		d.Edges = append(d.Edges, graph.Edge{
			U: graph.NodeID(rng.Intn(n)), V: graph.NodeID(rng.Intn(n)),
		})
	}
	lsn := appendDurable(t, h.log, d)
	if _, err := h.eng.ApplyRecords([]wal.Record{{LSN: lsn, Delta: d}}, nil); err != nil {
		t.Fatal(err)
	}
}

// waitCaughtUp polls until the follower reports ready at the primary's
// durable LSN.
func waitCaughtUp(t *testing.T, f *replica.Follower, target uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		st := f.Status()
		if st.Ready && st.Applied >= target {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := f.Status()
	t.Fatalf("follower never caught up: applied %d, primary %d, lag %d, ready %v (target %d)",
		st.Applied, st.PrimaryLSN, st.Lag, st.Ready, target)
}

// TestFollowerOfIdlePrimaryIsReadyAtOnce: readiness follows from a
// bootstrap plus one clean poll, and that first poll must not long-poll
// — a primary that takes no writes would otherwise keep its follower
// unready for a whole PollWait (set far past the test's patience here).
func TestFollowerOfIdlePrimaryIsReadyAtOnce(t *testing.T) {
	h := newPrimaryHarness(t)
	f := replica.NewFollower(h.ts.URL, h.ts.Client())
	f.PollWait = time.Minute
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- f.Run(ctx) }()
	defer func() { cancel(); <-runDone }()

	deadline := time.Now().Add(5 * time.Second)
	for !f.Status().Ready {
		if time.Now().After(deadline) {
			t.Fatalf("follower of an idle primary not ready after 5s (PollWait %v): %+v", f.PollWait, f.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := f.Status(); st.Applied != 0 || st.Lag != 0 {
		t.Fatalf("ready at %+v, want applied 0 / lag 0 on a log with no records", st)
	}
}

// TestFollowerConvergesByteIdentical is the acceptance property of the
// replication subsystem: a follower bootstrapped MID-stream (the primary
// already has logged updates, more keep arriving during catch-up)
// converges to byte-identical query results with the primary, while
// concurrent queries hammer the follower's engine throughout (run with
// -race via make test).
func TestFollowerConvergesByteIdentical(t *testing.T) {
	h := newPrimaryHarness(t)
	rng := rand.New(rand.NewSource(42))

	// Updates before the follower exists.
	for i := 0; i < 3; i++ {
		h.applyRandom(t, rng, fmt.Sprintf("pre%d", i))
	}

	f := replica.NewFollower(h.ts.URL, h.ts.Client())
	f.PollWait = 200 * time.Millisecond
	f.Backoff = 20 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if f.Engine().LSN() != 3 {
		t.Fatalf("bootstrap at LSN %d, want 3", f.Engine().LSN())
	}

	runDone := make(chan error, 1)
	go func() { runDone <- f.Run(ctx) }()

	// Hammer the follower's engine with reads during catch-up; the epoch
	// machinery must keep every read consistent and data-race free.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				eng := f.Engine()
				g := eng.Graph()
				users := g.NodesOfType(g.Types().ID("user"))
				if _, err := eng.Query("classmate", users[i%len(users)], 5); err != nil {
					t.Error(err)
					return
				}
				_ = eng.Stats()
			}
		}()
	}

	// Updates while the follower is streaming.
	for i := 0; i < 5; i++ {
		h.applyRandom(t, rng, fmt.Sprintf("live%d", i))
		time.Sleep(5 * time.Millisecond)
	}

	waitCaughtUp(t, f, h.log.DurableLSN())
	close(stop)
	wg.Wait()

	// Byte-identical state: same snapshot bytes, same answers everywhere.
	var want, got bytes.Buffer
	if err := h.eng.Save(&want); err != nil {
		t.Fatal(err)
	}
	if err := f.Engine().Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("follower snapshot differs from primary snapshot")
	}
	pg := h.eng.Graph()
	users := pg.NodesOfType(pg.Types().ID("user"))
	for _, q := range users {
		a, errA := h.eng.Query("classmate", q, 0)
		b, errB := f.Engine().Query("classmate", q, 0)
		if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d diverged: %v/%v vs %v/%v", q, a, errA, b, errB)
		}
	}

	// /readyz on a follower-flagged server reports ready with lag 0.
	fsrv := server.New(f.Engine())
	fsrv.SetFollower(f)
	fts := httptest.NewServer(fsrv)
	defer fts.Close()
	resp, err := fts.Client().Get(fts.URL + api.PathReadyz)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/readyz on caught-up follower = %d, want 200", resp.StatusCode)
	}
	if f.Lag() != 0 {
		t.Fatalf("lag = %d, want 0", f.Lag())
	}

	cancel()
	if err := <-runDone; err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
}

// TestFollowerAppliesValidPrefixOfStream: a polled batch whose record 2
// is invalid at its own position — its edge reaches the node record 3
// adds, so the concatenated batch would be valid — applies and logs
// record 1 only, and the divergence drops readiness.
func TestFollowerAppliesValidPrefixOfStream(t *testing.T) {
	h := newPrimaryHarness(t)
	n := graph.NodeID(h.eng.Graph().NumNodes())
	for _, d := range []graph.Delta{
		{Nodes: []graph.DeltaNode{{Type: "user", Value: "prefix-1"}}},
		{Edges: []graph.Edge{{U: 0, V: n + 1}}},
		{Nodes: []graph.DeltaNode{{Type: "user", Value: "prefix-3"}}},
	} {
		appendDurable(t, h.log, d)
	}
	f := newDurableFollower(t, h.ts.URL, h.ts.Client(), t.TempDir())
	f.Backoff = time.Minute // hold the diverged follower instead of re-bootstrapping
	ctx, cancel := context.WithCancel(context.Background())
	run := make(chan error, 1)
	go func() { run <- f.Run(ctx) }()
	waitApplied(t, f, 1)
	cancel()
	<-run

	if st := f.Status(); st.Applied != 1 || st.Ready {
		t.Fatalf("follower after the invalid record = %+v, want applied 1, not ready", st)
	}
	g := f.Engine().Graph()
	if f.Engine().LSN() != 1 || g.NodeByName("prefix-1") == graph.InvalidNode || g.NodeByName("prefix-3") != graph.InvalidNode {
		t.Fatalf("follower engine at LSN %d; want record 1 applied and nothing after it", f.Engine().LSN())
	}
	log, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if log.NextLSN() != 2 {
		t.Fatalf("local log would assign LSN %d next, want 2: the invalid record was logged", log.NextLSN())
	}
}

// TestFollowerBootstrapRejectsBadPrimary: a primary that serves garbage
// snapshots fails Bootstrap with an error, not a panic.
func TestFollowerBootstrapRejectsBadPrimary(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	defer ts.Close()
	f := replica.NewFollower(ts.URL, ts.Client())
	if err := f.Bootstrap(context.Background()); err == nil {
		t.Fatal("bootstrap from a non-primary succeeded")
	}
}

// TestFollowerBootstrapPersistsOnlyWhatLoads: a durable follower loads the
// stream while staging it, and renames the staged file into place only
// after the load — checksum included — succeeded. A primary that dies
// mid-snapshot (here: the stream minus its last byte) must therefore leave
// the state directory empty, with nothing for Restore to boot from; the
// whole stream must leave exactly the primary's bytes.
func TestFollowerBootstrapPersistsOnlyWhatLoads(t *testing.T) {
	h := newPrimaryHarness(t)
	var snap bytes.Buffer
	if err := h.eng.Save(&snap); err != nil {
		t.Fatal(err)
	}
	var send atomic.Int64
	send.Store(int64(snap.Len() - 1))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(snap.Bytes()[:send.Load()])
	}))
	defer ts.Close()
	dir := t.TempDir()
	f := replica.NewFollower(ts.URL, ts.Client())
	f.Dir = dir
	if err := f.Bootstrap(context.Background()); err == nil {
		t.Fatal("bootstrap from a truncated snapshot stream succeeded")
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("failed bootstrap left %v in the state directory (err %v)", left, err)
	}
	if ok, err := f.Restore(); ok || err != nil {
		t.Fatalf("Restore after a failed bootstrap = %v, %v; want nothing to restore", ok, err)
	}

	send.Store(int64(snap.Len()))
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got, err := os.ReadFile(filepath.Join(dir, "engine.snap")); err != nil || !bytes.Equal(got, snap.Bytes()) {
		t.Fatalf("persisted snapshot differs from the primary's stream (err %v)", err)
	}
	if got := f.SnapshotBytes(); got != int64(snap.Len()) {
		t.Fatalf("SnapshotBytes = %d, want the %d bytes the primary sent", got, snap.Len())
	}
	// The running follower exports what it downloaded.
	var expo bytes.Buffer
	if err := obs.WriteText(&expo, obs.Default()); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("semprox_replica_bootstrap_bytes %d\n", snap.Len()); !strings.Contains(expo.String(), want) {
		t.Fatalf("/metrics lacks %q", want)
	}
}

// TestServeSinceByteBound: the primary bounds a since batch by bytes as
// well as record count, so a follower that fell far behind a stream of
// large deltas never receives a response bigger than it will decode —
// the kept prefix stays contiguous and the follower simply re-polls.
func TestServeSinceByteBound(t *testing.T) {
	h := newPrimaryHarness(t)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3; i++ {
		h.applyRandom(t, rng, fmt.Sprintf("bb%d", i))
	}
	p := replica.NewPrimary(h.eng, h.log)
	p.MaxBytes = 1 // every record exceeds the budget: one per response

	got := 0
	after := uint64(0)
	for i := 0; i < 3; i++ {
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/replicate/since?lsn=%d&max=100", after), nil)
		status, body, err := p.ServeSince(req)
		if err != nil || status != http.StatusOK {
			t.Fatalf("ServeSince = %d, %v", status, err)
		}
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		var sr struct {
			LastLSN uint64 `json:"last_lsn"`
			Records []struct {
				LSN uint64 `json:"lsn"`
			} `json:"records"`
		}
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatal(err)
		}
		if len(sr.Records) != 1 {
			t.Fatalf("poll %d returned %d records, want 1 (byte bound)", i, len(sr.Records))
		}
		if sr.Records[0].LSN != after+1 {
			t.Fatalf("poll %d: LSN %d, want %d (non-contiguous prefix)", i, sr.Records[0].LSN, after+1)
		}
		after = sr.Records[0].LSN
		got++
	}
	if got != 3 || after != h.log.DurableLSN() {
		t.Fatalf("drained %d records to LSN %d, want 3 to %d", got, after, h.log.DurableLSN())
	}
}

// TestFollowerAnswersEveryNodeNameAsPrimary: a follower bootstrapped after
// an update whose node names a line-oriented format would trim or split
// answers a query for each of them with the primary's exact bytes.
func TestFollowerAnswersEveryNodeNameAsPrimary(t *testing.T) {
	h := newPrimaryHarness(t)
	names := []string{" lead", "trail ", "a\nb", "a\r\nb", "tab\there", "#hash"}
	g := h.eng.Graph()
	var d graph.Delta
	for i, name := range names {
		d.Nodes = append(d.Nodes, graph.DeltaNode{Type: "user", Value: name})
		d.Edges = append(d.Edges, graph.Edge{U: graph.NodeID(g.NumNodes() + i), V: g.NodeByName("College A")})
	}
	lsn := appendDurable(t, h.log, d)
	if _, err := h.eng.ApplyRecords([]wal.Record{{LSN: lsn, Delta: d}}, nil); err != nil {
		t.Fatal(err)
	}
	f := replica.NewFollower(h.ts.URL, h.ts.Client())
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatalf("bootstrap after the update: %v", err)
	}
	fsrv := server.New(f.Engine())
	fsrv.SetFollower(f)
	fts := httptest.NewServer(fsrv)
	defer fts.Close()
	query := func(base, name string) (int, []byte) {
		body, err := json.Marshal(api.QueryRequest{Class: "classmate", Query: name, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+api.PathQuery, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		if _, err := out.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out.Bytes()
	}
	for _, name := range names {
		wantCode, want := query(h.ts.URL, name)
		gotCode, got := query(fts.URL, name)
		if wantCode != http.StatusOK {
			t.Fatalf("%q: the primary answers %d %s", name, wantCode, want)
		}
		if gotCode != wantCode || !bytes.Equal(got, want) {
			t.Errorf("%q: follower answers %d %s, primary %d %s", name, gotCode, got, wantCode, want)
		}
	}
}
