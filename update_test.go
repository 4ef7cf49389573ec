package semprox

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/fixtures"
	"repro/internal/flat"
	"repro/internal/index"
	"repro/internal/mining"
)

// rebuildFromScratch builds a reference engine on the final graph: same
// metagraph set, same trained weights (the paper's w* weighs metagraph
// features, so a graph delta does not retrain), but every matched
// metagraph re-matched from scratch on the compacted final graph and the
// index merged afresh. ApplyUpdate must be indistinguishable from it.
func rebuildFromScratch(t testing.TB, e *Engine) *Engine {
	t.Helper()
	ep := e.cur.Load()
	e2 := &Engine{anchor: e.anchor, opts: e.opts, ms: e.ms}
	g := ep.g.Compact()
	var slots []int
	for i, ok := range ep.matched {
		if ok {
			slots = append(slots, i)
		}
	}
	ix, matched := e2.matchMissing(g, index.NewBuilder(len(e.ms)).Build(), make([]bool, len(e.ms)), slots)
	nep := &epoch{g: g, ix: ix, matched: matched, classes: make(map[string]*classModel, len(ep.classes)), version: ep.version}
	for name, cm := range ep.classes {
		nep.classes[name] = newClass(len(e.ms), cm.kept, cm.model)
	}
	e2.publish(nep)
	return e2
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
// query, every proximity, every weight vector — to an engine rebuilt from scratch on the final graph, both before and after
// compaction, for full and dual-stage trained classes alike.
func TestApplyUpdateEqualsScratch(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		eng, g := toyEngine(t)
		eng.Train("classmate", classmateExamples(g))
		if trial%2 == 0 {
			eng.TrainDualStage("classmate2", classmateExamples(g), 2)
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
		if eng.Stats().PendingCompaction == 0 {
			t.Fatal("expected pending compaction after updates")
		}
		eng.Compact()
		if p := eng.Stats().PendingCompaction; p != 0 {
			t.Fatalf("pending after Compact = %d", p)
		}
		assertEngineEquivalent(t, eng, scratch, fmt.Sprintf("trial %d (compacted)", trial))
	}
}

// TestApplyUpdateLogTransform covers the transformed-count path: patched
// rows must be transformed exactly like built rows.
func TestApplyUpdateLogTransform(t *testing.T) {
	g := fixtures.Toy()
	opts := DefaultOptions()
	opts.Mining.MaxNodes, opts.Mining.MinSupport = 4, 1
	opts.Train.Restarts, opts.Train.MaxIters = 1, 50
	opts.LogTransform = true
	eng, err := NewEngine(g, "user", opts)
	if err != nil {
		t.Fatal(err)
	}
	eng.Train("classmate", classmateExamples(g))
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 2; step++ {
		if _, err := eng.ApplyUpdate(randomToyDelta(rng, eng.Graph().NumNodes(), fmt.Sprintf("lt-%d", step))); err != nil {
			t.Fatal(err)
		}
	}
	assertEngineEquivalent(t, eng, rebuildFromScratch(t, eng), "log-transform")
}

// hubEngine trains one class on a small LinkedIn-shaped graph, whose
// college, employer and location nodes are hubs, and returns the engine
// with the graph's highest-degree node.
func hubEngine(t testing.TB, users int, logTransform bool) (*Engine, NodeID) {
	t.Helper()
	ds := dataset.LinkedIn(dataset.Config{Users: users, Seed: 4, NoiseRate: 0.05})
	opts := DefaultOptions()
	opts.Mining = mining.Options{MaxNodes: 4, MinSupport: 5}
	opts.Train.Restarts, opts.Train.MaxIters = 1, 40
	opts.LogTransform = logTransform
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
// edges, and an old user joining the hub — on raw and log-transformed
// counts, before and after compaction. Every update reports the work it
// did and records it.
func TestApplyUpdateOnHubEqualsScratch(t *testing.T) {
	for _, logTransform := range []bool{false, true} {
		eng, hub := hubEngine(t, 200, logTransform)
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
		observed := engEnumerated.Summary().Count
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
				t.Fatalf("log %v delta %d: stats %+v", logTransform, i, st)
			}
		}
		if got := engEnumerated.Summary().Count - observed; got != 3 {
			t.Fatalf("3 updates recorded %d enumeration counts", got)
		}
		scratch := rebuildFromScratch(t, eng)
		assertEngineEquivalent(t, eng, scratch, fmt.Sprintf("hub, log %v (patched)", logTransform))
		eng.Compact()
		assertEngineEquivalent(t, eng, scratch, fmt.Sprintf("hub, log %v (compacted)", logTransform))
	}
}

// checkDenominators holds every class of the serving epoch to what the
// denominators are defined as: bit for bit the m_v·w a recompute over the
// epoch's index gives, and the one an engine rebuilt from scratch on
// the same graph derives — and Engine.Query, which adds them up, to
// core.RankTop, which evaluates every node row, on the same epoch.
func checkDenominators(t *testing.T, e *Engine, tag string) {
	t.Helper()
	ep := e.cur.Load()
	scratch := rebuildFromScratch(t, e).cur.Load()
	bits := func(dots []float64) []uint64 {
		out := make([]uint64, len(dots))
		for i, d := range dots {
			out[i] = math.Float64bits(d)
		}
		return out
	}
	if len(ep.classes) == 0 {
		t.Fatalf("%s: no trained class", tag)
	}
	for name, cm := range ep.classes {
		if cm.dots == nil {
			t.Fatalf("%s: class %q published without denominators", tag, name)
		}
		got := bits(cm.dots)
		if want := bits(ep.ix.NodeDots(cm.w)); !slices.Equal(got, want) {
			t.Fatalf("%s: class %q carries denominators %v, recomputed %v", tag, name, cm.dots, ep.ix.NodeDots(cm.w))
		}
		if want := bits(scratch.ix.NodeDots(cm.w)); !slices.Equal(got, want) {
			t.Fatalf("%s: class %q carries denominators that differ from a from-scratch engine's", tag, name)
		}
		for q := NodeID(-1); int(q) <= ep.g.NumNodes(); q++ {
			for _, k := range []int{0, 3} {
				got, err := e.Query(name, q, k)
				if err != nil {
					t.Fatal(err)
				}
				if want := core.RankTop(ep.ix, cm.w, q, k); !slices.Equal(got, want) {
					t.Fatalf("%s: class %q query %d k=%d: engine %v, RankTop %v", tag, name, q, k, got, want)
				}
			}
		}
	}
}

// TestDenominatorsCarriedEqualScratch is the property behind scanning with
// precomputed denominators: whatever path published the epoch — training,
// an update that patches node rows and adds nodes, a patch over a patch, a
// coalesced batch, a hub update, compaction, a snapshot load; raw and
// log-transformed counts — the vector the class carries is the vector a
// recompute gives, so no score moves a bit.
func TestDenominatorsCarriedEqualScratch(t *testing.T) {
	for _, logTransform := range []bool{false, true} {
		tag := fmt.Sprintf("toy, log %v", logTransform)
		g := fixtures.Toy()
		opts := DefaultOptions()
		opts.Mining = mining.Options{MaxNodes: 4, MinSupport: 1}
		opts.Train.Restarts, opts.Train.MaxIters = 1, 50
		opts.LogTransform = logTransform
		eng, err := NewEngine(g, "user", opts)
		if err != nil {
			t.Fatal(err)
		}
		eng.Train("classmate", classmateExamples(g))
		eng.TrainDualStage("classmate2", classmateExamples(g), 2)
		checkDenominators(t, eng, tag+" (trained)")

		// Each delta enrols new users at a school of the toy graph, so each
		// adds nodes and moves the node rows of that school's students: a
		// carry over a compacted base, then two over earlier patches.
		rng := rand.New(rand.NewSource(21))
		for step, school := range []string{"College A", "College B", "College A"} {
			before := eng.cur.Load().classes["classmate"].dots
			n := NodeID(eng.Graph().NumNodes())
			d := randomToyDelta(rng, int(n)+1, fmt.Sprintf("den-%d", step))
			d.Nodes = append([]DeltaNode{{Type: "user", Value: fmt.Sprintf("den-user-%d", step)}}, d.Nodes...)
			d.Edges = append(d.Edges, Edge{U: n, V: g.NodeByName(school)}, Edge{U: n, V: g.NodeByName("Economics")})
			if _, err := eng.ApplyUpdate(d); err != nil {
				t.Fatal(err)
			}
			if slices.Equal(before, eng.cur.Load().classes["classmate"].dots[:len(before)]) {
				t.Fatalf("%s: update %d moved no denominator; the carry was not exercised", tag, step)
			}
			checkDenominators(t, eng, fmt.Sprintf("%s (update %d)", tag, step))
		}
		n := NodeID(eng.Graph().NumNodes())
		batch := Delta{
			Nodes: []DeltaNode{{Type: "user", Value: "den-a"}, {Type: "user", Value: "den-b"}},
			Edges: []Edge{{U: n, V: g.NodeByName("College A")}, {U: n + 1, V: g.NodeByName("College A")}},
		}
		if _, err := eng.ApplyUpdateBatchAt(batch, eng.LSN()+2, 2); err != nil {
			t.Fatal(err)
		}
		checkDenominators(t, eng, tag+" (coalesced batch)")
		eng.Compact()
		checkDenominators(t, eng, tag+" (compacted)")

		var buf bytes.Buffer
		if err := eng.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadEngine(&buf)
		if err != nil {
			t.Fatal(err)
		}
		checkDenominators(t, loaded, tag+" (loaded)")
		if _, err := loaded.ApplyUpdate(randomToyDelta(rng, loaded.Graph().NumNodes(), "den-loaded")); err != nil {
			t.Fatal(err)
		}
		checkDenominators(t, loaded, tag+" (loaded, updated)")

		hubEng, hub := hubEngine(t, 200, logTransform)
		m := NodeID(hubEng.Graph().NumNodes())
		for i, d := range []Delta{
			{Nodes: []DeltaNode{{Type: "user"}}, Edges: []Edge{{U: m, V: hub}}},
			{Edges: []Edge{{U: hubEng.Graph().NodesOfType(hubEng.Graph().Types().ID("user"))[0], V: hub}, {U: m, V: hub}}},
		} {
			if _, err := hubEng.ApplyUpdate(d); err != nil {
				t.Fatal(err)
			}
			checkDenominators(t, hubEng, fmt.Sprintf("hub, log %v (update %d)", logTransform, i))
		}
		hubEng.Compact()
		checkDenominators(t, hubEng, fmt.Sprintf("hub, log %v (compacted)", logTransform))
	}
}

// sharedSchool is a LogTransform engine over users A and B who share one
// school (and C, who shares nothing), trained so that the user–school–user
// metapath is matched, with its snapshot. Every count of its index is 1:
// m_A, m_B and m_AB of that metapath.
func sharedSchool(t *testing.T) (snap []byte, a, b NodeID) {
	t.Helper()
	gb := NewGraphBuilder()
	for _, tn := range []string{"user", "school"} {
		gb.Types().Register(tn)
	}
	a, b = gb.AddNode("user", "A"), gb.AddNode("user", "B")
	c, school, other := gb.AddNode("user", "C"), gb.AddNode("school", "S"), gb.AddNode("school", "T")
	gb.AddEdge(a, school)
	gb.AddEdge(b, school)
	gb.AddEdge(c, other)
	opts := DefaultOptions()
	opts.Mining = mining.Options{MaxNodes: 3, MinSupport: 1}
	opts.Train.Restarts, opts.Train.MaxIters = 1, 5
	opts.LogTransform = true
	eng, err := NewEngine(gb.MustBuild(), "user", opts)
	if err != nil {
		t.Fatal(err)
	}
	eng.Train("peers", []Example{{Q: a, X: b, Y: c}})
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), a, b
}

// withEveryCount re-encodes a snapshot with every count of its index section
// set to c, checksum valid: the on-disk form of an index whose instances
// number c wherever it has a row.
func withEveryCount(t *testing.T, snap []byte, c uint64) []byte {
	t.Helper()
	fr, err := flat.NewReader(bytes.NewReader(snap), snapshotMagic)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	fw := flat.NewWriter(&out, snapshotMagic)
	hdr := fr.Bytes()
	var h snapHeader
	if err := json.Unmarshal(hdr, &h); err != nil {
		t.Fatal(err)
	}
	fw.Bytes(hdr)
	fw.Bytes(fr.Bytes()) // graph
	uv := func() uint64 { v := fr.Uvarint(); fw.Uvarint(v); return v }
	uv() // numMeta
	for table := 0; table < 2; table++ {
		nKeys, nEnt := uv(), uv()
		for i := uint64(0); i < 2*nKeys; i++ { // key deltas, row lengths
			uv()
		}
		for i := uint64(0); i < nEnt; i++ {
			uv() // Meta
			fr.Uvarint()
			fw.Uvarint(c)
		}
	}
	for _, sc := range h.Classes { // log-likelihood and weights
		for i := 0; i <= len(sc.Kept); i++ {
			fw.Uint64(fr.Uint64())
		}
	}
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// newSchools enrols users a and b at n new schools: n new instances of the
// user–school–user metapath for m_a, m_b and m_ab.
func newSchools(g *Graph, n int, a, b NodeID) Delta {
	var d Delta
	for i := 0; i < n; i++ {
		s := NodeID(g.NumNodes() + i)
		d.Nodes = append(d.Nodes, DeltaNode{Type: "school", Value: fmt.Sprintf("new-%d", i)})
		d.Edges = append(d.Edges, Edge{U: a, V: s}, Edge{U: b, V: s})
	}
	return d
}

// TestUnlog1pRecoversCounts keeps its name and pins the fact that replaced
// recovering a count from a stored log1p value: the index stores counts, so
// on a LogTransform engine gains that land on a count c
// read back bit for bit as math.Log1p(float64(c+g)) — for c and g on both
// sides of the varint byte boundaries (127/128, 16383/16384) and sums up to
// 2^32-1, through a snapshot and an update.
func TestUnlog1pRecoversCounts(t *testing.T) {
	snap, a, b := sharedSchool(t)
	for _, g := range []uint64{1, 127, 128, 16383, 16384} {
		for _, c := range []uint64{1, 127, 128, 16383, 16384, math.MaxUint32 - g} {
			eng, err := LoadEngine(bytes.NewReader(withEveryCount(t, snap, c)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.ApplyUpdate(newSchools(eng.Graph(), int(g), a, b)); err != nil {
				t.Fatalf("c=%d g=%d: %v", c, g, err)
			}
			ix := eng.cur.Load().ix
			want := math.Float64bits(math.Log1p(float64(c + g)))
			if eng.MatchedCount() == 0 {
				t.Fatal("no metagraph matched")
			}
			for i, used := range ix.MetaSupport() {
				if !used {
					continue
				}
				for name, v := range map[string]index.SparseVec{"m_A": ix.NodeVec(a), "m_B": ix.NodeVec(b), "m_AB": ix.PairVec(a, b)} {
					if got := v.Get(i); math.Float64bits(got) != want {
						t.Fatalf("c=%d g=%d: %s[%d] reads %v, want log1p(%d) = %v", c, g, name, i, got, c+g, math.Log1p(float64(c+g)))
					}
				}
			}
		}
	}
}

// TestApplyUpdateRefusesCountOverflow: an update whose gains would carry a
// stored count past 2^32-1 returns an error and leaves the engine as it was
// — same epoch, LSN and snapshot bytes — instead of wrapping the count.
func TestApplyUpdateRefusesCountOverflow(t *testing.T) {
	snap, a, b := sharedSchool(t)
	eng, err := LoadEngine(bytes.NewReader(withEveryCount(t, snap, math.MaxUint32)))
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
// many goroutines while updates and compactions swap epochs underneath.
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
				// Whatever epoch a reader can see is already finished:
				// none of these reads may be the one that builds the
				// index's adjacency.
				if !eng.cur.Load().ix.HasAdjacency() {
					t.Error("a published epoch left its adjacency for a reader to build")
					return
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
	eng.Compact()
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

// TestPublishedEpochsNeedNoReaderBuild pins who builds the partner
// adjacency: every path that publishes an epoch — full and dual-stage
// training, updates (a first patch and a patch over a patch), compaction,
// snapshot load — hands readers an index whose adjacency exists
// BEFORE the first read, so no read path can trigger the O(pairs) build.
// TestQueriesServeDuringUpdate asserts the same from concurrent readers.
func TestPublishedEpochsNeedNoReaderBuild(t *testing.T) {
	finished := func(stage string, e *Engine) {
		t.Helper()
		ep := e.cur.Load()
		if len(ep.classes) != 2 {
			t.Fatalf("%s: %d classes published, want 2", stage, len(ep.classes))
		}
		if !ep.ix.HasAdjacency() {
			t.Fatalf("%s: the index was published without its adjacency", stage)
		}
	}
	eng, g := toyEngine(t)
	eng.Train("classmate", classmateExamples(g))
	eng.TrainDualStage("classmate2", classmateExamples(g), 2)
	finished("training", eng)

	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 2; step++ {
		st, err := eng.ApplyUpdate(randomToyDelta(rng, eng.Graph().NumNodes(), fmt.Sprintf("adj-%d", step)))
		if err != nil {
			t.Fatal(err)
		}
		if st.Rematched == 0 || st.Pending == 0 {
			t.Fatalf("update %d patched nothing (%+v): the overlay path was not exercised", step, st)
		}
		finished(fmt.Sprintf("update %d", step), eng)
	}
	eng.Compact()
	if p := eng.Stats().PendingCompaction; p != 0 {
		t.Fatalf("compaction left %d structures pending", p)
	}
	finished("compaction", eng)

	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	finished("snapshot load", loaded)
}

// TestSnapshotRoundTripAfterUpdates: a mutated engine must round-trip
// through Save/LoadEngine — same epoch, same answers, nothing pending.
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
	if p := loaded.Stats().PendingCompaction; p != 0 {
		t.Fatalf("loaded engine pending = %d", p)
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

// TestApplyUpdateBatchMatchesOneAtATime is the coalesced-apply property
// behind the follower's batched catch-up: a contiguous run of logged
// deltas applied as ONE ApplyUpdateBatchAt call (concatenated delta,
// epoch advanced once per covered record) must leave the engine
// byte-identical — snapshot bytes, epoch, LSN, every query — to applying
// the records one ApplyUpdateAt at a time.
func TestApplyUpdateBatchMatchesOneAtATime(t *testing.T) {
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
		// applied record-by-record on one engine and as a single coalesced
		// batch on the other.
		lsn := uint64(0)
		for chunk := 0; chunk < 3; chunk++ {
			records := 1 + rng.Intn(4)
			var merged Delta
			nodes := oneAtATime.Graph().NumNodes()
			for r := 0; r < records; r++ {
				d := randomToyDelta(rng, nodes, fmt.Sprintf("b%d-c%d-r%d", trial, chunk, r))
				lsn++
				if _, err := oneAtATime.ApplyUpdateAt(d, lsn); err != nil {
					t.Fatal(err)
				}
				merged.Nodes = append(merged.Nodes, d.Nodes...)
				merged.Edges = append(merged.Edges, d.Edges...)
				nodes += len(d.Nodes)
			}
			if _, err := coalesced.ApplyUpdateBatchAt(merged, lsn, records); err != nil {
				t.Fatal(err)
			}
		}

		if coalesced.Epoch() != oneAtATime.Epoch() || coalesced.LSN() != oneAtATime.LSN() {
			t.Fatalf("coalesced at epoch %d LSN %d, one-at-a-time at epoch %d LSN %d",
				coalesced.Epoch(), coalesced.LSN(), oneAtATime.Epoch(), oneAtATime.LSN())
		}
		assertEngineEquivalent(t, coalesced, oneAtATime, fmt.Sprintf("trial %d (patched)", trial))
		oneAtATime.Compact()
		coalesced.Compact()
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

// TestApplyUpdateBatchValidation pins the argument contract: a batch
// must cover at least one record, the whole covered range must lie
// beyond the engine's LSN, and a failed batch leaves the engine
// unchanged.
func TestApplyUpdateBatchValidation(t *testing.T) {
	eng, g := toyEngine(t)
	eng.Train("classmate", classmateExamples(g))
	d := Delta{Nodes: []DeltaNode{{Type: "user", Value: "bv-1"}}}
	if _, err := eng.ApplyUpdateBatchAt(d, 1, 0); err == nil {
		t.Fatal("records=0 accepted")
	}
	if _, err := eng.ApplyUpdateBatchAt(d, 1, 2); err == nil {
		t.Fatal("2 records ending at LSN 1 accepted")
	}
	if _, err := eng.ApplyUpdateBatchAt(d, 2, 2); err != nil {
		t.Fatalf("records 1..2: %v", err)
	}
	if eng.LSN() != 2 || eng.Epoch() != 2 {
		t.Fatalf("LSN %d epoch %d, want 2/2", eng.LSN(), eng.Epoch())
	}
	// Range overlapping the applied prefix: records 2..3 collide with the
	// engine's LSN 2.
	if _, err := eng.ApplyUpdateBatchAt(d, 3, 2); err == nil {
		t.Fatal("overlapping batch accepted")
	}
	if eng.LSN() != 2 || eng.Epoch() != 2 {
		t.Fatalf("failed batch mutated the engine: LSN %d epoch %d", eng.LSN(), eng.Epoch())
	}
}
