package semprox

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/fixtures"
	"repro/internal/flat"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/wal"
)

// rebuildFromScratch builds a reference engine on the final graph: same
// metagraph set, same trained weights (the paper's w* weighs metagraph
// features, so a graph delta does not retrain), but every held metagraph
// re-matched from scratch on the final graph by SymISO and the index merged
// afresh — e's snapshot with that index in place of its own, loaded.
// The load counts the two-edge metapaths again from common neighbours, so
// the reference's index is held to SymISO's too. ApplyUpdate must be
// indistinguishable from it.
func rebuildFromScratch(t testing.TB, e *Engine) *Engine {
	t.Helper()
	h, g, _, models := snapshotParts(t, snapshotOf(t, e))
	ms := make([]*Metagraph, len(h.Matched))
	for k, i := range h.Matched {
		ms[k] = e.Metagraphs()[i]
	}
	parts, _ := index.MatchParts(ms, func() match.Matcher { return match.NewSymISO(g) }, 1)
	ix := index.Empty(len(h.Metas)).AddParts(h.Matched, parts)
	ref := loadCrafted(t, h, g, ix, models)
	if _, _, got, _ := snapshotParts(t, snapshotOf(t, ref)); !bytes.Equal(indexBytes(t, got), indexBytes(t, ix)) {
		t.Fatal("the reference engine's index, two-edge metapaths counted from common neighbours, is not SymISO's")
	}
	return ref
}

// indexBytes is ix's section framed as a stream of its own: equal rows
// write equal bytes.
func indexBytes(t testing.TB, ix *index.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := flat.NewWriter(&buf, "")
	index.Encode(fw, ix)
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomToyDelta grows the toy graph with users, attributes and edges.
func randomToyDelta(rng *rand.Rand, numNodes int, tag string) Delta {
	var d Delta
	types := []string{"user", "school", "hobby", "employer"}
	for i := rng.Intn(3); i > 0; i-- {
		d.Nodes = append(d.Nodes, DeltaNode{
			Type:  types[rng.Intn(len(types))],
			Value: fmt.Sprintf("%s-%d", tag, i),
		})
	}
	total := numNodes + len(d.Nodes)
	for i := 1 + rng.Intn(6); i > 0; i-- {
		d.Edges = append(d.Edges, Edge{U: NodeID(rng.Intn(total)), V: NodeID(rng.Intn(total))})
	}
	return d
}

// assertEngineEquivalent checks that two engines answer every query,
// proximity and weight read byte-identically.
func assertEngineEquivalent(t *testing.T, got, want *Engine, tag string) {
	t.Helper()
	g := want.Graph()
	if gotG := got.Graph(); gotG.NumNodes() != g.NumNodes() || gotG.NumEdges() != g.NumEdges() {
		t.Fatalf("%s: graph %v vs %v", tag, gotG, g)
	}
	classes := want.Classes()
	if !reflect.DeepEqual(got.Classes(), classes) {
		t.Fatalf("%s: classes %v vs %v", tag, got.Classes(), classes)
	}
	users := g.NodesOfType(g.Types().ID("user"))
	for _, class := range classes {
		if !reflect.DeepEqual(got.Weights(class), want.Weights(class)) {
			t.Fatalf("%s: weights of %q differ", tag, class)
		}
		for _, q := range users {
			for _, k := range []int{0, 3} {
				a, errA := got.Query(class, q, k)
				b, errB := want.Query(class, q, k)
				if (errA != nil) != (errB != nil) {
					t.Fatalf("%s: query error mismatch: %v vs %v", tag, errA, errB)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: class %q k=%d query %d:\n got %v\nwant %v", tag, class, k, q, a, b)
				}
			}
		}
		for _, x := range users {
			for _, y := range users {
				a, _ := got.Proximity(class, x, y)
				b, _ := want.Proximity(class, x, y)
				if a != b {
					t.Fatalf("%s: proximity(%d,%d) = %v, want %v", tag, x, y, a, b)
				}
			}
		}
	}
}

// TestApplyUpdateEqualsScratch is the tentpole property: for random delta
// sequences, the incrementally updated engine is byte-identical — every
// query, every proximity, every weight vector — to an engine rebuilt from
// scratch on the final graph, for full and dual-stage trained classes
// alike.
func TestApplyUpdateEqualsScratch(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		eng, g := toyEngine(t)
		eng.Train("classmate", classmateExamples(g))
		if trial%2 == 0 {
			TrainDualStage(eng, "classmate2", classmateExamples(g), 2)
		}
		for step := 0; step < 3; step++ {
			d := randomToyDelta(rng, eng.Graph().NumNodes(), fmt.Sprintf("t%d-s%d", trial, step))
			st, err := eng.ApplyUpdate(d)
			if err != nil {
				t.Fatal(err)
			}
			if st.Epoch != uint64(step+1) {
				t.Fatalf("epoch = %d, want %d", st.Epoch, step+1)
			}
			if eng.Epoch() != st.Epoch {
				t.Fatalf("Epoch() = %d, want %d", eng.Epoch(), st.Epoch)
			}
		}
		scratch := rebuildFromScratch(t, eng)
		assertEngineEquivalent(t, eng, scratch, fmt.Sprintf("trial %d (patched)", trial))
		assertEngineEquivalent(t, eng, scratch, fmt.Sprintf("trial %d (patched, again)", trial))
	}
}

// hubEngine trains one class on a small LinkedIn-shaped graph, whose
// college, employer and location nodes are hubs, and returns the engine
// with the graph's highest-degree node.
func hubEngine(t testing.TB, users int) (*Engine, NodeID) {
	t.Helper()
	ds := dataset.LinkedIn(dataset.Config{Users: users, Seed: 4, NoiseRate: 0.05})
	opts := DefaultOptions()
	opts.Mining = mining.Options{MaxNodes: 4, MinSupport: 5}
	opts.Train.Restarts, opts.Train.MaxIters = 1, 40
	eng, err := NewEngine(ds.G, "user", opts)
	if err != nil {
		t.Fatal(err)
	}
	labels := ds.Classes["college"]
	eng.Train("college", eval.MakeExamples(labels, labels.Queries(), ds.Users(), 30, 4))
	if eng.MatchedCount() == 0 {
		t.Fatalf("no metagraphs mined at %d users", users)
	}
	hub := NodeID(0)
	for v := NodeID(1); int(v) < ds.G.NumNodes(); v++ {
		if ds.G.Degree(v) > ds.G.Degree(hub) {
			hub = v
		}
	}
	return eng, hub
}

// TestApplyUpdateOnHubEqualsScratch holds the tentpole property where the
// hop-bounded re-match was slowest and the random toy deltas never go: an
// edge on the highest-degree node, instances made of two to four delta
// edges, and an old user joining the hub. Every update reports the work it
// did and records it.
func TestApplyUpdateOnHubEqualsScratch(t *testing.T) {
	eng, hub := hubEngine(t, 200)
	g := eng.Graph()
	n := NodeID(g.NumNodes())
	employer := g.NodesOfType(g.Types().ID("employer"))[0]
	var outsider NodeID
	for _, u := range g.NodesOfType(g.Types().ID("user")) {
		if !g.HasEdge(u, hub) {
			outsider = u
			break
		}
	}
	user := DeltaNode{Type: "user"}
	enumerated := obs.Default().Histogram("semprox_update_instances_enumerated", "", obs.Units)
	observed := enumerated.Summary().Count
	for i, d := range []Delta{
		{Nodes: []DeltaNode{user}, Edges: []Edge{{U: n, V: hub}}},
		{Nodes: []DeltaNode{user, user}, Edges: []Edge{{U: n + 1, V: hub}, {U: n + 2, V: hub}, {U: employer, V: n + 1}, {U: n + 2, V: employer}}},
		{Edges: []Edge{{U: outsider, V: hub}, {U: hub, V: outsider}}},
	} {
		st, err := eng.ApplyUpdate(d)
		if err != nil {
			t.Fatal(err)
		}
		if st.Rematched != eng.MatchedCount() || st.Enumerated == 0 {
			t.Fatalf("delta %d: stats %+v", i, st)
		}
	}
	if got := enumerated.Summary().Count - observed; got != 3 {
		t.Fatalf("3 updates recorded %d enumeration counts", got)
	}
	scratch := rebuildFromScratch(t, eng)
	assertEngineEquivalent(t, eng, scratch, "hub (patched)")
	assertEngineEquivalent(t, eng, scratch, "hub (patched, again)")
}

// TestUpdateStagesAreObserved: a new user joining the highest-degree node
// records its write path in both stages of semprox_update_stage_seconds,
// once each, and the default registry exposes the two series.
func TestUpdateStagesAreObserved(t *testing.T) {
	eng, hub := hubEngine(t, 200)
	stage := func(name string) *obs.Histogram {
		return obs.Default().Histogram("semprox_update_stage_seconds", "", obs.Seconds, obs.L("stage", name))
	}
	rematch, patch := stage("rematch").Summary().Count, stage("patch").Summary().Count
	n := NodeID(eng.Graph().NumNodes())
	if _, err := eng.ApplyUpdate(Delta{Nodes: []DeltaNode{{Type: "user"}}, Edges: []Edge{{U: n, V: hub}}}); err != nil {
		t.Fatal(err)
	}
	if got := stage("rematch").Summary().Count - rematch; got != 1 {
		t.Fatalf("a hub update observed the rematch stage %d times", got)
	}
	if got := stage("patch").Summary().Count - patch; got != 1 {
		t.Fatalf("a hub update observed the patch stage %d times", got)
	}
	var text bytes.Buffer
	if err := obs.WriteText(&text, obs.Default()); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"rematch", "patch"} {
		if series := `semprox_update_stage_seconds_count{stage="` + stage + `"}`; !strings.Contains(text.String(), series) {
			t.Fatalf("the exposition lacks %s", series)
		}
	}
}

// sharedSchool is an engine over fixtures.SharedSchool and its one
// metagraph, the user–user–school triangle, trained so that it is matched,
// with its snapshot. Every count of its index is 1: m_A, m_B and m_AB of
// the triangle.
func sharedSchool(t *testing.T) (snap []byte, a, b NodeID) {
	t.Helper()
	g, a, b, c := fixtures.SharedSchool()
	opts := DefaultOptions()
	opts.Train.Restarts, opts.Train.MaxIters = 1, 5
	eng := engine.New(g, g.Types().ID("user"), fixtures.SharedSchoolMetagraphs(g), opts)
	eng.Train("peers", []Example{{Q: a, X: b, Y: c}})
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), a, b
}

// newSchools enrols users a and b at n new schools: n new instances of the
// user–user–school triangle for m_a, m_b and m_ab.
func newSchools(g *Graph, n int, a, b NodeID) Delta {
	var d Delta
	for i := 0; i < n; i++ {
		s := NodeID(g.NumNodes() + i)
		d.Nodes = append(d.Nodes, DeltaNode{Type: "school", Value: fmt.Sprintf("new-%d", i)})
		d.Edges = append(d.Edges, Edge{U: a, V: s}, Edge{U: b, V: s})
	}
	return d
}

// TestApplyUpdateRefusesCountOverflow: an update whose gains would carry a
// stored count past 2^32-1 returns an error and leaves the engine as it was
// — same epoch, LSN and snapshot bytes — instead of wrapping the count.
func TestApplyUpdateRefusesCountOverflow(t *testing.T) {
	snap, a, b := sharedSchool(t)
	eng, err := LoadEngine(bytes.NewReader(fixtures.WithEveryCount(t, snap, engine.SnapshotMagic, math.MaxUint32)))
	if err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := eng.Save(&before); err != nil {
		t.Fatal(err)
	}
	stats := eng.Stats()
	if _, err := eng.ApplyUpdate(newSchools(eng.Graph(), 1, a, b)); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("ApplyUpdate past 2^32-1 returned %v, want an overflow error", err)
	}
	var after bytes.Buffer
	if err := eng.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eng.Stats(), stats) || !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("a refused update changed the engine: %+v, was %+v", eng.Stats(), stats)
	}
}

// TestApplyUpdateUntrained exercises the graph-only swap: no matched
// metagraphs, nothing to re-match, the epoch still advances and training
// afterwards sees the updated graph.
func TestApplyUpdateUntrained(t *testing.T) {
	eng, g := toyEngine(t)
	st, err := eng.ApplyUpdate(Delta{
		Nodes: []DeltaNode{{Type: "user", Value: "Zoe"}},
		Edges: []Edge{{U: NodeID(g.NumNodes()), V: g.NodeByName("College A")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rematched != 0 || st.NodesAdded != 1 || st.EdgesAdded != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if eng.Graph().NodeByName("Zoe") == InvalidNode {
		t.Fatal("new node not visible")
	}
	eng.Train("classmate", classmateExamples(g))
	if _, err := eng.Query("classmate", eng.Graph().NodeByName("Zoe"), 3); err != nil {
		t.Fatal(err)
	}
}

// TestApplyUpdateErrors verifies rejected deltas leave the engine
// untouched.
func TestApplyUpdateErrors(t *testing.T) {
	eng, _ := toyEngine(t)
	before := eng.Stats()
	if _, err := eng.ApplyUpdate(Delta{Nodes: []DeltaNode{{Type: "alien", Value: "x"}}}); err == nil {
		t.Fatal("unknown type accepted")
	}
	if _, err := eng.ApplyUpdate(Delta{Edges: []Edge{{U: 0, V: 10_000}}}); err == nil {
		t.Fatal("dangling edge accepted")
	}
	if after := eng.Stats(); !reflect.DeepEqual(before, after) {
		t.Fatalf("failed update changed state: %+v vs %+v", before, after)
	}
}

// TestQueriesServeDuringUpdate hammers Query/QueryBatch/Proximity from
// many goroutines while updates swap epochs underneath.
// Every observed ranking must equal the pre-update or the post-update
// reference — an epoch is atomic, a mix of the two is a bug. Run with
// -race (make test) this also proves the swap is data-race free.
func TestQueriesServeDuringUpdate(t *testing.T) {
	eng, g := toyEngine(t)
	eng.Train("classmate", classmateExamples(g))
	probes := g.NodesOfType(g.Types().ID("user"))

	refOld := make(map[NodeID][]Ranked, len(probes))
	for _, q := range probes {
		r, err := eng.Query("classmate", q, 5)
		if err != nil {
			t.Fatal(err)
		}
		refOld[q] = r
	}

	const queriers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	observed := make([]map[NodeID][][]Ranked, queriers)
	for w := 0; w < queriers; w++ {
		observed[w] = make(map[NodeID][][]Ranked)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := probes[i%len(probes)]
				r, err := eng.Query("classmate", q, 5)
				if err != nil {
					t.Error(err)
					return
				}
				observed[w][q] = append(observed[w][q], r)
				if batch, err := eng.QueryBatch("classmate", probes, 5); err != nil || len(batch) != len(probes) {
					t.Errorf("batch: %v (%d results)", err, len(batch))
					return
				}
				if _, err := eng.Proximity("classmate", probes[0], q); err != nil {
					t.Error(err)
					return
				}
				_ = eng.Stats()
			}
		}(w)
	}

	d := Delta{
		Nodes: []DeltaNode{{Type: "user", Value: "Zoe"}, {Type: "school", Value: "College Z"}},
		Edges: []Edge{
			{U: NodeID(g.NumNodes()), V: NodeID(g.NumNodes() + 1)},
			{U: g.NodeByName("Kate"), V: NodeID(g.NumNodes() + 1)},
			{U: g.NodeByName("Alice"), V: g.NodeByName("College B")},
		},
	}
	if _, err := eng.ApplyUpdate(d); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	refNew := make(map[NodeID][]Ranked, len(probes))
	for _, q := range probes {
		r, err := eng.Query("classmate", q, 5)
		if err != nil {
			t.Fatal(err)
		}
		refNew[q] = r
	}
	for w := range observed {
		for q, results := range observed[w] {
			for _, r := range results {
				if !reflect.DeepEqual(r, refOld[q]) && !reflect.DeepEqual(r, refNew[q]) {
					t.Fatalf("query %d observed a ranking matching neither epoch:\n got %v\n old %v\n new %v",
						q, r, refOld[q], refNew[q])
				}
			}
		}
	}
}

// TestSnapshotRoundTripAfterUpdates: a mutated engine must round-trip
// through Save/LoadEngine — same epoch, same answers.
func TestSnapshotRoundTripAfterUpdates(t *testing.T) {
	eng, g := toyEngine(t)
	eng.Train("classmate", classmateExamples(g))
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 2; step++ {
		if _, err := eng.ApplyUpdate(randomToyDelta(rng, eng.Graph().NumNodes(), fmt.Sprintf("rt-%d", step))); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Epoch() != eng.Epoch() {
		t.Fatalf("loaded epoch %d, want %d", loaded.Epoch(), eng.Epoch())
	}

	// Saving twice yields identical bytes (epoch included).
	var buf2 bytes.Buffer
	if err := eng.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("snapshot bytes not deterministic")
	}
	assertEngineEquivalent(t, loaded, eng, "snapshot round-trip")
}

// QueryBatch edge cases: empty batch, untrained class, alignment with
// single queries, and the k <= 0 "full ranking" convention.
func TestQueryBatchEdgeCases(t *testing.T) {
	eng, g := toyEngine(t)

	if _, err := eng.QueryBatch("classmate", []NodeID{0}, 5); err == nil {
		t.Fatal("untrained class must error")
	}
	eng.Train("classmate", classmateExamples(g))

	out, err := eng.QueryBatch("classmate", nil, 5)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %d results", err, len(out))
	}

	// Results align with qs and match single queries.
	qs := []NodeID{g.NodeByName("Kate"), g.NodeByName("Bob")}
	out, err = eng.QueryBatch("classmate", qs, 3)
	if err != nil || len(out) != len(qs) {
		t.Fatalf("clamped batch: %v, %d results", err, len(out))
	}
	for i, q := range qs {
		want, _ := eng.Query("classmate", q, 3)
		if !reflect.DeepEqual(out[i], want) {
			t.Fatalf("batch[%d] = %v, want %v", i, out[i], want)
		}
	}

	// k <= 0 returns every candidate, like Query.
	for _, k := range []int{0, -1} {
		out, err = eng.QueryBatch("classmate", qs, k)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			want, _ := eng.Query("classmate", q, 0)
			if !reflect.DeepEqual(out[i], want) {
				t.Fatalf("k=%d batch[%d] mismatch", k, i)
			}
		}
	}
}

// TestApplyRecordsMatchesOneAtATime is the coalesced-apply property
// behind replay and the follower's batched catch-up: a contiguous run of
// logged deltas applied as ONE ApplyRecords call (concatenated delta,
// epoch advanced once per covered record) must leave the engine
// byte-identical — snapshot bytes, epoch, LSN, every query — to applying
// the records one ApplyRecords call at a time.
func TestApplyRecordsMatchesOneAtATime(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		base, g := toyEngine(t)
		base.Train("classmate", classmateExamples(g))
		var seed bytes.Buffer
		if err := base.Save(&seed); err != nil {
			t.Fatal(err)
		}
		oneAtATime, err := LoadEngine(bytes.NewReader(seed.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		coalesced, err := LoadEngine(bytes.NewReader(seed.Bytes()))
		if err != nil {
			t.Fatal(err)
		}

		// A random record stream, chunked at random points: each chunk is
		// applied record-by-record on one engine and as a single run on
		// the other.
		lsn := uint64(0)
		for chunk := 0; chunk < 3; chunk++ {
			var run []wal.Record
			nodes := oneAtATime.Graph().NumNodes()
			for r := 1 + rng.Intn(4); r > 0; r-- {
				lsn++
				rec := wal.Record{LSN: lsn, Delta: randomToyDelta(rng, nodes, fmt.Sprintf("b%d-c%d-r%d", trial, chunk, r))}
				if _, err := oneAtATime.ApplyRecords([]wal.Record{rec}, nil); err != nil {
					t.Fatal(err)
				}
				run = append(run, rec)
				nodes += len(rec.Delta.Nodes)
			}
			epoch := coalesced.Epoch()
			st, err := coalesced.ApplyRecords(run, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st.Records != len(run) || st.LSN != lsn || st.Epoch != epoch+uint64(len(run)) {
				t.Fatalf("run of %d ending at LSN %d: stats %+v from epoch %d", len(run), lsn, st, epoch)
			}
		}

		if coalesced.Epoch() != oneAtATime.Epoch() || coalesced.LSN() != oneAtATime.LSN() {
			t.Fatalf("coalesced at epoch %d LSN %d, one-at-a-time at epoch %d LSN %d",
				coalesced.Epoch(), coalesced.LSN(), oneAtATime.Epoch(), oneAtATime.LSN())
		}
		assertEngineEquivalent(t, coalesced, oneAtATime, fmt.Sprintf("trial %d (patched)", trial))
		var a, b bytes.Buffer
		if err := oneAtATime.Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := coalesced.Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("trial %d: coalesced snapshot differs from one-at-a-time snapshot", trial)
		}
	}
}

// TestApplyUpdateBatchValidation pins the range contract of a coalesced
// run: an empty run publishes nothing, the whole run must lie beyond the
// engine's LSN, and a refused run leaves the engine unchanged.
func TestApplyUpdateBatchValidation(t *testing.T) {
	eng, g := toyEngine(t)
	eng.Train("classmate", classmateExamples(g))
	user := func(name string) Delta { return Delta{Nodes: []DeltaNode{{Type: "user", Value: name}}} }
	nodes := g.NumNodes()
	if st, err := eng.ApplyRecords(nil, nil); err != nil || st.Records != 0 || eng.Epoch() != 0 {
		t.Fatalf("empty run: stats %+v, err %v, epoch %d", st, err, eng.Epoch())
	}
	if st, err := eng.ApplyRecords([]wal.Record{{LSN: 1, Delta: user("bv-1")}, {LSN: 2, Delta: user("bv-2")}}, nil); err != nil || st.Records != 2 {
		t.Fatalf("records 1..2: stats %+v, err %v", st, err)
	}
	if eng.LSN() != 2 || eng.Epoch() != 2 || eng.Graph().NumNodes() != nodes+2 {
		t.Fatalf("LSN %d epoch %d nodes %d, want 2/2/%d", eng.LSN(), eng.Epoch(), eng.Graph().NumNodes(), nodes+2)
	}
	// Range overlapping the applied prefix: records 2..3 collide with the
	// engine's LSN 2.
	if st, err := eng.ApplyRecords([]wal.Record{{LSN: 2, Delta: user("bv-2b")}, {LSN: 3, Delta: user("bv-3")}}, nil); err == nil || st.Records != 0 {
		t.Fatalf("overlapping run: stats %+v, err %v; want a refusal", st, err)
	}
	if eng.LSN() != 2 || eng.Epoch() != 2 || eng.Graph().NumNodes() != nodes+2 {
		t.Fatalf("refused run mutated the engine: LSN %d epoch %d nodes %d", eng.LSN(), eng.Epoch(), eng.Graph().NumNodes())
	}
}

// TestApplyRecordsValidation pins the run contract: the run lies wholly
// beyond the engine's LSN (so LSN 0 never applies) and ascends by one; a
// record that breaks it, or that is invalid at its own position, leaves
// the valid prefix applied and its error names that record's LSN; a run
// with no valid prefix leaves the engine unchanged; and plain ApplyUpdate
// keeps advancing from wherever the LSN is.
func TestApplyRecordsValidation(t *testing.T) {
	eng, g := toyEngine(t)
	eng.Train("classmate", classmateExamples(g))
	user := func(name string) Delta { return Delta{Nodes: []DeltaNode{{Type: "user", Value: name}}} }
	n := NodeID(g.NumNodes())
	at := func(tag string, lsn, epoch uint64, nodes int) {
		t.Helper()
		if eng.LSN() != lsn || eng.Epoch() != epoch || eng.Graph().NumNodes() != nodes {
			t.Fatalf("%s: LSN %d epoch %d nodes %d, want %d/%d/%d", tag, eng.LSN(), eng.Epoch(), eng.Graph().NumNodes(), lsn, epoch, nodes)
		}
	}
	for _, tc := range []struct {
		name string
		recs []wal.Record
	}{
		{"LSN 0", []wal.Record{{LSN: 0, Delta: user("z0")}}},
		{"unknown type", []wal.Record{{LSN: 1, Delta: Delta{Nodes: []DeltaNode{{Type: "ghost", Value: "g"}}}}}},
	} {
		if st, err := eng.ApplyRecords(tc.recs, nil); err == nil || st.Records != 0 {
			t.Fatalf("%s: stats %+v, err %v; want a refusal", tc.name, st, err)
		}
		at(tc.name, 0, 0, int(n))
	}
	// A run may start anywhere beyond the engine's LSN.
	if st, err := eng.ApplyRecords([]wal.Record{{LSN: 5, Delta: user("z5")}, {LSN: 6, Delta: user("z6")}}, nil); err != nil || st.Records != 2 {
		t.Fatalf("records 5..6: stats %+v, err %v", st, err)
	}
	at("records 5..6", 6, 2, int(n)+2)
	for _, lsn := range []uint64{6, 3} {
		if _, err := eng.ApplyRecords([]wal.Record{{LSN: lsn, Delta: user("stale")}}, nil); err == nil {
			t.Fatalf("LSN %d at engine LSN 6 accepted", lsn)
		}
		at("stale run", 6, 2, int(n)+2)
	}

	// Record 8 is invalid at its own position — its edge reaches node
	// n+3, which only record 9 adds — though the concatenated run would
	// be valid; record 11 skips LSN 10. Each stops the run after the
	// valid prefix, and nothing past it is logged.
	for _, tc := range []struct {
		recs    []wal.Record
		bad     uint64
		applied int
	}{
		{[]wal.Record{{LSN: 7, Delta: user("z7")}, {LSN: 8, Delta: Delta{Edges: []Edge{{U: 0, V: n + 3}}}}, {LSN: 9, Delta: user("z9")}}, 8, 1},
		{[]wal.Record{{LSN: 8, Delta: user("z8")}, {LSN: 9, Delta: user("z9")}, {LSN: 11, Delta: user("z11")}}, 11, 2},
	} {
		lsn, epoch, nodes := eng.LSN(), eng.Epoch(), eng.Graph().NumNodes()
		logged := -1
		st, err := eng.ApplyRecords(tc.recs, func(valid int) error { logged = valid; return nil })
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("LSN %d", tc.bad)) {
			t.Fatalf("run %d..: error %v, want one naming LSN %d", tc.recs[0].LSN, err, tc.bad)
		}
		if st.Records != tc.applied || logged != tc.applied {
			t.Fatalf("run %d..: applied %d, logged %d, want %d", tc.recs[0].LSN, st.Records, logged, tc.applied)
		}
		at(fmt.Sprintf("run %d..", tc.recs[0].LSN), lsn+uint64(tc.applied), epoch+uint64(tc.applied), nodes+tc.applied)
	}

	// A failing hook publishes nothing and returns its error.
	lsn, epoch, nodes := eng.LSN(), eng.Epoch(), eng.Graph().NumNodes()
	full := errors.New("disk full")
	if _, err := eng.ApplyRecords([]wal.Record{{LSN: lsn + 1, Delta: user("z10")}}, func(int) error { return full }); !errors.Is(err, full) {
		t.Fatalf("hook failure: %v", err)
	}
	at("failed hook", lsn, epoch, nodes)

	st, err := eng.ApplyUpdate(user("Max"))
	if err != nil {
		t.Fatal(err)
	}
	if st.LSN != lsn+1 || st.Records != 1 {
		t.Fatalf("ApplyUpdate: stats %+v, want LSN %d covering 1 record", st, lsn+1)
	}
}
