package semprox

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/fixtures"
	"repro/internal/obs"
	"repro/internal/wal"
)

// lastWALSegment returns the newest segment file of a WAL directory.
func lastWALSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no wal segments in %s: %v", dir, err)
	}
	sort.Strings(names)
	return names[len(names)-1]
}

// writePaths are the two ways an engine and its log advance together: a
// record logged first and applied at its LSN (what replay and followers
// do), and a primary's own write path — the engine accepts the update,
// the log numbers it (AppendAsync inside ApplyUpdateLogged), and the ack
// waits for the fsync. Each returns the LSN the update landed at.
var writePaths = []struct {
	name  string
	write func(*Engine, *wal.WAL, Delta) (UpdateStats, error)
}{
	{"append-then-apply", func(eng *Engine, w *wal.WAL, d Delta) (UpdateStats, error) {
		lsn, err := w.Append(d)
		if err != nil {
			return UpdateStats{}, err
		}
		return eng.ApplyRecords([]wal.Record{{LSN: lsn, Delta: d}}, nil)
	}},
	{"primary", func(eng *Engine, w *wal.WAL, d Delta) (UpdateStats, error) {
		st, err := eng.ApplyUpdateLogged(d, func() (uint64, error) { return w.AppendAsync(d) })
		if err != nil {
			return st, err
		}
		return st, w.WaitDurable(st.LSN)
	}},
}

// TestCrashRecoveryEqualsUninterrupted is the acceptance property of the
// durability subsystem: a primary that is killed after N random durable
// updates — no clean shutdown, snapshot arbitrarily stale, a torn record
// on the log tail — recovers (snapshot + WAL replay) to an engine whose
// every query, proximity, weight vector and stat is byte-identical to the
// uninterrupted engine that applied the same deltas, at multiple worker
// counts, whichever write path logged them.
func TestCrashRecoveryEqualsUninterrupted(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			for _, path := range writePaths {
				t.Run(path.name, func(t *testing.T) { crashRecovery(t, trial, path.write) })
			}
		})
	}
}

// crashRecovery is one trial of TestCrashRecoveryEqualsUninterrupted
// with the updates logged through write.
func crashRecovery(t *testing.T, trial int, write func(*Engine, *wal.WAL, Delta) (UpdateStats, error)) {
	rng := rand.New(rand.NewSource(int64(900 + trial)))
	eng, g := toyEngine(t)
	eng.Train("classmate", classmateExamples(g))
	if trial%2 == 1 {
		TrainDualStage(eng, "classmate2", classmateExamples(g), 2)
	}

	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{BaseLSN: eng.LSN(), SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}

	// The snapshot is taken mid-sequence (after snapAt of the N
	// updates), so recovery must combine it with the WAL suffix. It is
	// gated on the log as a primary gates the snapshots it serves: never
	// ahead of the durable records.
	const N = 6
	snapAt := 1 + trial%3
	var snap bytes.Buffer
	if err := eng.SaveWait(&snap, w.WaitDurable); err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= N; step++ {
		d := randomToyDelta(rng, eng.Graph().NumNodes(), fmt.Sprintf("cr%d-%d", trial, step))
		st, err := write(eng, w, d)
		if err != nil {
			t.Fatal(err)
		}
		if lsn := uint64(step); st.LSN != lsn || eng.LSN() != lsn || w.DurableLSN() != lsn {
			t.Fatalf("step %d: stats LSN %d, engine LSN %d, durable LSN %d, want %d",
				step, st.LSN, eng.LSN(), w.DurableLSN(), lsn)
		}
		if step == snapAt {
			snap.Reset()
			if err := eng.SaveWait(&snap, w.WaitDurable); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Crash: the WAL handle is abandoned (never Closed) and the
	// last segment gains a torn half-record, exactly what dying
	// mid-write leaves behind.
	f, err := os.OpenFile(lastWALSegment(t, dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x01, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Recovery: snapshot, then the log tail beyond it.
	rec, err := LoadEngine(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rec.LSN() != uint64(snapAt) {
		t.Fatalf("snapshot LSN %d, want %d", rec.LSN(), snapAt)
	}
	w2, err := wal.Open(dir, wal.Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	applied, skipped, err := ReplayWAL(rec, w2)
	if err != nil {
		t.Fatal(err)
	}
	if applied != N-snapAt || skipped != 0 {
		t.Fatalf("replayed %d records (skipped %d), want %d (0)", applied, skipped, N-snapAt)
	}
	if rec.LSN() != eng.LSN() || rec.Epoch() != eng.Epoch() {
		t.Fatalf("recovered at LSN %d epoch %d, primary at LSN %d epoch %d",
			rec.LSN(), rec.Epoch(), eng.LSN(), eng.Epoch())
	}

	// Byte-identical serving state, across worker counts.
	assertEngineEquivalent(t, rec, eng, fmt.Sprintf("crash trial %d", trial))

	// Identical stats and identical snapshot bytes.
	if got, want := rec.Stats(), eng.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stats diverged:\n got %+v\nwant %+v", got, want)
	}
	var b1, b2 bytes.Buffer
	if err := eng.Save(&b1); err != nil {
		t.Fatal(err)
	}
	if err := rec.Save(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("recovered engine snapshot differs from uninterrupted engine snapshot")
	}

	// A second crash-recovery from the post-recovery state keeps
	// working: the reopened log accepts appends past the tail.
	d := randomToyDelta(rng, rec.Graph().NumNodes(), fmt.Sprintf("cr%d-post", trial))
	lsn, err := w2.Append(d)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != uint64(N+1) {
		t.Fatalf("post-recovery append at LSN %d, want %d", lsn, N+1)
	}
	if _, err := rec.ApplyRecords([]wal.Record{{LSN: lsn, Delta: d}}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReplayWALRejectsTruncatedLog: recovering a snapshot older than the
// log's truncation horizon must fail loudly — the missing records cannot
// be reconstructed.
func TestReplayWALRejectsTruncatedLog(t *testing.T) {
	eng, g := toyEngine(t)
	eng.Train("classmate", classmateExamples(g))
	var oldSnap bytes.Buffer
	if err := eng.Save(&oldSnap); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rng := rand.New(rand.NewSource(3))
	for step := 1; step <= 6; step++ {
		d := randomToyDelta(rng, eng.Graph().NumNodes(), fmt.Sprintf("tr-%d", step))
		lsn, err := w.Append(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.ApplyRecords([]wal.Record{{LSN: lsn, Delta: d}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh snapshot at LSN 6 makes the prefix redundant; drop it.
	if err := w.TruncateThrough(4); err != nil {
		t.Fatal(err)
	}
	if w.FirstLSN() <= 1 {
		t.Skip("truncation kept the full log (single segment); nothing to assert")
	}
	old, err := LoadEngine(bytes.NewReader(oldSnap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReplayWAL(old, w); err == nil {
		t.Fatal("replaying a truncated log over a too-old snapshot succeeded")
	}
}

// TestReplayWALRejectsUnrecordedRejection: a primary logs only records
// its engine accepted, so a logged record the engine rejects means the
// log does not belong to the snapshot — replay must abort, naming the
// record, instead of silently diverging. Record 3 is invalid at its own
// position (its edge reaches the node record 4 adds), though the run
// concatenated would be valid.
func TestReplayWALRejectsUnrecordedRejection(t *testing.T) {
	for _, bad := range []Delta{
		{Nodes: []DeltaNode{{Type: "nosuchtype", Value: "ghost"}}},
		{Edges: []Edge{{U: 0, V: NodeID(fixtures.Toy().NumNodes() + 2)}}},
	} {
		eng, g := toyEngine(t)
		eng.Train("classmate", classmateExamples(g))
		w, err := wal.Open(t.TempDir(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		for _, d := range []Delta{
			{Nodes: []DeltaNode{{Type: "user", Value: "Zoe"}}},
			{Nodes: []DeltaNode{{Type: "user", Value: "Max"}}},
			bad,
			{Nodes: []DeltaNode{{Type: "user", Value: "Ada"}}},
		} {
			if _, err := w.Append(d); err != nil {
				t.Fatal(err)
			}
		}

		applied, _, err := ReplayWAL(eng, w)
		if err == nil || !strings.Contains(err.Error(), "LSN 3") {
			t.Fatalf("replaying a log with a rejected record 3: %v", err)
		}
		// The valid prefix applied before the abort; nothing from the
		// rejected record or after it leaked in.
		if applied != 2 || eng.LSN() != 2 || eng.Epoch() != 2 || eng.Graph().NodeByName("ghost") != InvalidNode || eng.Graph().NodeByName("Ada") != InvalidNode {
			t.Fatalf("after aborted replay: applied %d, LSN %d, epoch %d (want 2, 2, 2); ghost or Ada present", applied, eng.LSN(), eng.Epoch())
		}
	}
}

// TestReplayWALAppliesRuns: replaying N records publishes one epoch per
// run of replayRun records, ⌈N/replayRun⌉ in all, while the epoch counter
// advances by N, and leaves the engine byte-identical to the primary that
// applied them one at a time.
func TestReplayWALAppliesRuns(t *testing.T) {
	const replayRun = 256 // the records ReplayWAL applies as one epoch
	applies := obs.Default().Histogram("semprox_engine_apply_seconds", "", obs.Seconds)
	primary, g := toyEngine(t)
	primary.Train("classmate", classmateExamples(g))
	var snap bytes.Buffer
	if err := primary.Save(&snap); err != nil {
		t.Fatal(err)
	}
	w, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const N = 2*replayRun + 1
	college := g.NodeByName("College A")
	for i := 0; i < N; i++ {
		n := NodeID(primary.Graph().NumNodes())
		d := Delta{Nodes: []DeltaNode{{Type: "user", Value: fmt.Sprintf("run-%d", i)}}, Edges: []Edge{{U: n, V: college}}}
		if _, err := primary.ApplyUpdateLogged(d, func() (uint64, error) { return w.Append(d) }); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := LoadEngine(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	epochs := applies.Summary().Count
	applied, _, err := ReplayWAL(rec, w)
	if err != nil {
		t.Fatal(err)
	}
	if published := applies.Summary().Count - epochs; applied != N || published != (N+replayRun-1)/replayRun {
		t.Fatalf("replayed %d records in %d epochs, want %d in %d", applied, published, N, (N+replayRun-1)/replayRun)
	}
	if rec.Epoch() != primary.Epoch() || rec.LSN() != N {
		t.Fatalf("replayed to epoch %d LSN %d, primary at epoch %d LSN %d", rec.Epoch(), rec.LSN(), primary.Epoch(), N)
	}
	var a, b bytes.Buffer
	if err := primary.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := rec.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("replayed engine snapshot differs from the primary's")
	}
}

// TestRefusedUpdateNeverLogged: the engine refuses an update before the
// log numbers it. On the count-overflow fixture ApplyUpdateLogged refuses
// without calling appendLog, and the log (next and durable LSN, directory
// listing) and the engine (Stats, Save bytes) stay exactly as they were;
// an appendLog that fails, or that returns an LSN not beyond the
// engine's, publishes nothing; every accepted update lands
// at the next contiguous LSN; and a crash recovers the live engine byte
// for byte.
func TestRefusedUpdateNeverLogged(t *testing.T) {
	snap, a, b := sharedSchool(t)
	full := fixtures.WithEveryCount(t, snap, engine.SnapshotMagic, math.MaxUint32)
	eng, err := LoadEngine(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{BaseLSN: eng.LSN()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	type state struct {
		next, durable uint64
		files         []string
		stats         Stats
		save          []byte
	}
	capture := func() state {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var files []string
		for _, e := range entries {
			files = append(files, e.Name())
		}
		var buf bytes.Buffer
		if err := eng.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return state{w.NextLSN(), w.DurableLSN(), files, eng.Stats(), buf.Bytes()}
	}
	unchanged := func(what string, was state) {
		t.Helper()
		if now := capture(); !reflect.DeepEqual(now, was) {
			t.Fatalf("%s changed the log or the engine:\n now next %d durable %d files %v stats %+v\n was next %d durable %d files %v stats %+v",
				what, now.next, now.durable, now.files, now.stats, was.next, was.durable, was.files, was.stats)
		}
	}
	calls := 0
	appendLog := func(d Delta) func() (uint64, error) {
		return func() (uint64, error) { calls++; return w.AppendAsync(d) }
	}
	// refuse enrols A and B at one new school: every count it adds to is
	// already 2^32-1.
	refuse := func() {
		t.Helper()
		was := capture()
		d := newSchools(eng.Graph(), 1, a, b)
		_, err := eng.ApplyUpdateLogged(d, appendLog(d))
		if err == nil || !strings.Contains(err.Error(), "overflow") {
			t.Fatalf("overflowing update returned %v, want an overflow refusal", err)
		}
		if calls != 0 {
			t.Fatalf("a refused update reached the log (%d appendLog calls)", calls)
		}
		unchanged("a refused update", was)
	}
	// newUser adds a user at the school no count of the index covers.
	newUser := func(name string) Delta {
		g := eng.Graph()
		return Delta{Nodes: []DeltaNode{{Type: "user", Value: name}}, Edges: []Edge{{U: NodeID(g.NumNodes()), V: g.NodeByName("T")}}}
	}
	accept := func(name string, want uint64) {
		t.Helper()
		d := newUser(name)
		st, err := eng.ApplyUpdateLogged(d, appendLog(d))
		if err != nil {
			t.Fatal(err)
		}
		if calls != 1 || st.LSN != want || eng.LSN() != want {
			t.Fatalf("accepted update: %d appendLog calls, stats LSN %d, engine LSN %d; want 1, %d", calls, st.LSN, eng.LSN(), want)
		}
		if err := w.WaitDurable(st.LSN); err != nil {
			t.Fatal(err)
		}
		calls = 0
	}

	refuse()
	was := capture()
	diskFull := errors.New("disk full")
	if _, err := eng.ApplyUpdateLogged(newUser("D"), func() (uint64, error) { return 0, diskFull }); !errors.Is(err, diskFull) {
		t.Fatalf("failed appendLog returned %v, want %v", err, diskFull)
	}
	unchanged("a failed append", was)
	// A log that numbers a record at or below the engine's LSN is out of
	// step with it: the engine publishes nothing.
	if _, err := eng.ApplyUpdateLogged(newUser("D"), func() (uint64, error) { return eng.LSN(), nil }); err == nil {
		t.Fatal("an LSN not beyond the engine's was published")
	}
	unchanged("a stale log position", was)
	accept("D", 1)
	refuse()
	accept("E", 2)

	// Crash: abandon the live log, reopen the directory and replay it
	// over the snapshot the engine started from.
	w2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	rec, err := LoadEngine(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if applied, skipped, err := ReplayWAL(rec, w2); err != nil || applied != 2 || skipped != 0 {
		t.Fatalf("replay: applied %d, skipped %d, err %v; want 2, 0, nil", applied, skipped, err)
	}
	var b1, b2 bytes.Buffer
	if err := eng.Save(&b1); err != nil {
		t.Fatal(err)
	}
	if err := rec.Save(&b2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Stats(), eng.Stats()) || !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("recovered engine differs from the live one: %+v, live %+v", rec.Stats(), eng.Stats())
	}
}
