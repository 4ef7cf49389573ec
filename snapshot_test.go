package semprox

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/fixtures"
	"repro/internal/flat"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/metagraph"
	"repro/internal/mining"
)

// saveLoad round-trips an engine through the snapshot format.
func saveLoad(t *testing.T, eng *Engine) *Engine {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestSnapshotRoundTrip is the acceptance property: a saved+loaded engine
// answers queries identically (nodes AND bit-for-bit scores) to the
// in-memory engine that wrote the snapshot.
func TestSnapshotRoundTrip(t *testing.T) {
	// log=false: the index holds raw counts, and the engine ranks on them.
	t.Run("log=false", func(t *testing.T) {
		eng, g := toyEngine(t)
		eng.Train("classmate", classmateExamples(g))
		loaded := saveLoad(t, eng)

		if loaded.NumMetagraphs() != eng.NumMetagraphs() {
			t.Fatalf("metagraphs: %d, want %d", loaded.NumMetagraphs(), eng.NumMetagraphs())
		}
		if loaded.MatchedCount() != eng.MatchedCount() {
			t.Fatalf("matched: %d, want %d", loaded.MatchedCount(), eng.MatchedCount())
		}
		if got := loaded.Classes(); len(got) != 1 || got[0] != "classmate" {
			t.Fatalf("classes = %v", got)
		}
		wantW, gotW := eng.Weights("classmate"), loaded.Weights("classmate")
		if len(wantW) != len(gotW) {
			t.Fatalf("weights: %d, want %d", len(gotW), len(wantW))
		}
		for i := range wantW {
			if wantW[i] != gotW[i] {
				t.Fatalf("weight[%d] = %v, want %v", i, gotW[i], wantW[i])
			}
		}
		for _, name := range []string{"Kate", "Bob", "Alice", "Jay", "Tom"} {
			q := g.NodeByName(name)
			want, err := eng.Query("classmate", q, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.Query("classmate", q, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("query %s: %d results, want %d", name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("query %s: result[%d] = %+v, want %+v", name, i, got[i], want[i])
				}
			}
			p1, err1 := eng.Proximity("classmate", q, g.NodeByName("Jay"))
			p2, err2 := loaded.Proximity("classmate", q, g.NodeByName("Jay"))
			if err1 != nil || err2 != nil || p1 != p2 {
				t.Fatalf("proximity %s: %v/%v vs %v/%v", name, p1, err1, p2, err2)
			}
		}
		assertEngineEquivalent(t, loaded, eng, "round trip")
	})
}

// TestSnapshotDeterministicBytes pins that saving the same engine twice —
// and saving a loaded engine — produces identical bytes, so snapshots can
// be content-addressed and diffed.
func TestSnapshotDeterministicBytes(t *testing.T) {
	eng, g := toyEngine(t)
	eng.Train("classmate", classmateExamples(g))
	var a, b bytes.Buffer
	if err := eng.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := eng.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of the same engine differ")
	}
	loaded, err := LoadEngine(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := loaded.Save(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("save→load→save drifted")
	}
	assertEngineEquivalent(t, loaded, eng, "loaded")
}

// TestSnapshotDualStageResumesTraining saves a dual-stage engine (a strict
// subset of metagraphs matched), reloads it, and trains a NEW class on the
// loaded engine: the restored matching cache must be picked up instead of
// re-matched, and the new class must answer queries.
func TestSnapshotDualStageResumesTraining(t *testing.T) {
	eng, g := toyEngine(t)
	TrainDualStage(eng, "classmate", classmateExamples(g), 2)
	matched := eng.MatchedCount()
	if matched == 0 || matched >= eng.NumMetagraphs() {
		t.Fatalf("dual stage matched %d of %d; need a strict subset", matched, eng.NumMetagraphs())
	}
	loaded := saveLoad(t, eng)
	if loaded.MatchedCount() != matched {
		t.Fatalf("loaded matched %d, want %d", loaded.MatchedCount(), matched)
	}
	loaded.Train("family", []Example{
		{Q: g.NodeByName("Alice"), X: g.NodeByName("Bob"), Y: g.NodeByName("Tom")},
	})
	assertHoldsWeighed(t, loaded)
	if _, err := loaded.Query("family", g.NodeByName("Alice"), 5); err != nil {
		t.Fatal(err)
	}
	// The original class still answers identically after the new training.
	want, _ := eng.Query("classmate", g.NodeByName("Kate"), 10)
	got, err := loaded.Query("classmate", g.NodeByName("Kate"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("post-train query drifted: %d vs %d results", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-train result[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}

	// The dual-stage class, whose kept set is in selection order and covers
	// a strict subset of what is now matched, stays incremental == from
	// scratch on the loaded engine: across updates and one more save →
	// load.
	rng := rand.New(rand.NewSource(17))
	for step := 0; step < 3; step++ {
		if _, err := loaded.ApplyUpdate(randomToyDelta(rng, loaded.Graph().NumNodes(), fmt.Sprintf("ds-%d", step))); err != nil {
			t.Fatal(err)
		}
		assertEngineEquivalent(t, loaded, rebuildFromScratch(t, loaded), fmt.Sprintf("loaded dual-stage, update %d", step))
	}
	assertEngineEquivalent(t, saveLoad(t, loaded), loaded, "loaded dual-stage, saved again")
	scratch := rebuildFromScratch(t, loaded)
	assertEngineEquivalent(t, loaded, scratch, "loaded dual-stage, from scratch")
}

// TestSnapshotUntrainedEngine round-trips an engine with no trained
// classes and no matched metagraphs (mining output only).
func TestSnapshotUntrainedEngine(t *testing.T) {
	eng, g := toyEngine(t)
	loaded := saveLoad(t, eng)
	if loaded.NumMetagraphs() != eng.NumMetagraphs() || loaded.MatchedCount() != 0 {
		t.Fatalf("untrained round trip: %d metagraphs, %d matched",
			loaded.NumMetagraphs(), loaded.MatchedCount())
	}
	loaded.Train("classmate", classmateExamples(g))
	if _, err := loaded.Query("classmate", g.NodeByName("Kate"), 5); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRejectsCorruptInput exercises the load-time validation.
func TestSnapshotRejectsCorruptInput(t *testing.T) {
	if _, err := LoadEngine(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage accepted")
	}
	eng := func() *Engine {
		g := fixtures.Toy()
		e, err := NewEngine(g, "user", DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return e
	}()
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	// A v10 header could name a count transform no engine applies any more,
	// a v11 index section holds the rows of the two-edge metapaths, a v12
	// one a node table before its runs, and a v13 one the rows of a
	// two-edge metapath its counting budget kept: each version is refused
	// by its magic, not loaded as this one.
	for _, magic := range []string{"SPXS\x0a", "SPXS\x0b", "SPXS\x0c", "SPXS\x0d"} {
		old := append([]byte(magic), buf.Bytes()[len(engine.SnapshotMagic):]...)
		if _, err := LoadEngine(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Fatalf("%q snapshot: %v, want refused by its magic", magic, err)
		}
	}

	// Streams whose checksum holds and whose parts contradict each other. A
	// dual-stage engine leaves metagraphs unmatched, so the header can name
	// one that has no rows.
	ds, g := toyEngine(t)
	TrainDualStage(ds, "classmate", classmateExamples(g), 2)
	buf.Reset()
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	h, _, _, _ := snapshotParts(t, buf.Bytes())
	unmatched := 0
	for _, i := range h.Matched {
		if i == unmatched {
			unmatched++
		}
	}
	if unmatched == len(h.Metas) {
		t.Fatal("dual stage matched everything; need an unmatched metagraph")
	}
	// The section holds the rows of the matched metagraphs but the two-edge
	// metapaths.
	ms := headerMetagraphs(t, h)
	carried := slices.IndexFunc(h.Matched, func(i int) bool { return !index.IsTwoEdgeMetapath(ms[i]) })
	twoEdge := slices.IndexFunc(h.Matched, func(i int) bool { return index.IsTwoEdgeMetapath(ms[i]) })
	if carried < 0 || twoEdge < 0 {
		t.Fatalf("dual stage matched %v; need a two-edge metapath and another metagraph", h.Matched)
	}
	if _, err := LoadEngine(bytes.NewReader(recraft(t, buf.Bytes(), func(*engine.SnapshotHeader) {}))); err != nil {
		t.Fatalf("unedited re-encoding refused: %v", err)
	}
	for _, c := range []struct {
		name, want string
		edit       func(h *engine.SnapshotHeader)
	}{
		// Before SPXS\x05 this one loaded, and the first ApplyUpdate
		// dereferenced the part index it did not have.
		{"class keeps an unmatched metagraph", "keeps metagraph", func(h *engine.SnapshotHeader) {
			h.Classes[0].Kept = append(h.Classes[0].Kept, unmatched)
		}},
		{"class keeps a metagraph twice", "keeps metagraph", func(h *engine.SnapshotHeader) {
			h.Classes[0].Kept = append(h.Classes[0].Kept, h.Classes[0].Kept[0])
		}},
		{"class keeps a metagraph out of range", "keeps metagraph", func(h *engine.SnapshotHeader) {
			h.Classes[0].Kept = append(h.Classes[0].Kept, len(h.Metas))
		}},
		{"class keeps a negative metagraph", "keeps metagraph", func(h *engine.SnapshotHeader) {
			h.Classes[0].Kept[0] = -1
		}},
		{"matched metagraphs descending", "not ascending", func(h *engine.SnapshotHeader) { slices.Reverse(h.Matched) }},
		{"matched metagraph repeated", "not ascending", func(h *engine.SnapshotHeader) {
			h.Matched = append(h.Matched, h.Matched[len(h.Matched)-1])
		}},
		{"matched metagraph out of range", "not ascending", func(h *engine.SnapshotHeader) { h.Matched = append(h.Matched, len(h.Metas)) }},
		{"rows of an unmatched metagraph", "not matched", func(h *engine.SnapshotHeader) {
			drop := h.Matched[carried]
			h.Matched = slices.Delete(h.Matched, carried, carried+1)
			h.Classes[0].Kept = slices.DeleteFunc(h.Classes[0].Kept, func(i int) bool { return i == drop })
		}},
		{"index narrower than the metagraph set", "spans", func(h *engine.SnapshotHeader) { h.Metas = append(h.Metas, h.Metas[0]) }},
		{"class listed twice", "duplicated", func(h *engine.SnapshotHeader) { h.Classes = append(h.Classes, h.Classes[0]) }},
	} {
		_, err := LoadEngine(bytes.NewReader(recraft(t, buf.Bytes(), c.edit)))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: LoadEngine returned %v, want an error naming %q", c.name, err, c.want)
		}
	}
	// A section that carries the rows of a two-edge metapath, which the
	// graph serves — SymISO's runs of every matched metagraph: one epoch
	// has one encoding.
	{
		h, g, _, _ := snapshotParts(t, buf.Bytes())
		ms := headerMetagraphs(t, h)
		held := make([]*metagraph.Metagraph, len(h.Matched))
		for k, i := range h.Matched {
			held[k] = ms[i]
		}
		parts, _ := index.MatchParts(held, func() match.Matcher { return match.NewSymISO(g) }, 1)
		runs := index.Empty(len(ms)).AddParts(h.Matched, parts)
		full := writeSnapshot(t, h, g, nil, func(fw *flat.Writer) { index.Encode(fw, runs) }, nil)
		if _, err := LoadEngine(bytes.NewReader(full)); err == nil || !strings.Contains(err.Error(), "two-edge metapath") {
			t.Fatalf("rows of two-edge metapath %d in the section: LoadEngine returned %v", h.Matched[twoEdge], err)
		}
	}

	// Graph sections that break one rule each, behind an intact header and
	// ahead of an intact index. Node 0 ("Alice") has neighbours above it,
	// the first user with two of them shows the ascending rule.
	h, g, ix, _ := snapshotParts(t, buf.Bytes())
	if _, err := LoadEngine(bytes.NewReader(craft(t, h, g, rawOf(g).write, ix, nil))); err != nil {
		t.Fatalf("a hand-written graph section is refused: %v", err)
	}
	two := slices.IndexFunc(rawOf(g).above, func(gaps []uint64) bool { return len(gaps) >= 2 })
	if len(rawOf(g).above[0]) == 0 || two < 0 {
		t.Fatal("the toy graph lost the neighbour lists the cases edit")
	}
	for _, c := range []struct {
		name, want string
		edit       func(rg *rawGraph)
	}{
		{"type id out of range", "has type", func(rg *rawGraph) { rg.typ[3] = uint64(len(rg.types)) }},
		{"type id far out of range", "has type", func(rg *rawGraph) { rg.typ[3] = math.MaxUint64 }},
		{"type name registered twice", "repeats the name", func(rg *rawGraph) { rg.types[2] = rg.types[1] }},
		{"endpoint beyond the graph", "beyond", func(rg *rawGraph) {
			rg.above[0][0] = uint64(len(rg.typ))
		}},
		{"self loop", "self loop", func(rg *rawGraph) { rg.above[0][0] = 0 }},
		{"neighbours not ascending", "not strictly ascending", func(rg *rawGraph) { rg.above[two][1] = 0 }},
		{"more neighbours above than nodes", "claims", func(rg *rawGraph) {
			rg.above[len(rg.above)-1] = []uint64{1}
		}},
	} {
		rg := rawOf(g)
		c.edit(&rg)
		_, err := LoadEngine(bytes.NewReader(craft(t, h, g, rg.write, ix, nil)))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: LoadEngine returned %v, want an error naming %q", c.name, err, c.want)
		}
	}
	// A name longer than the rest of the stream: the section's one node
	// claims 64 bytes of name, and the type names are the last thing before
	// the checksum.
	rg := rawOf(g)
	longName := func(fw *flat.Writer) {
		fw.ExpGolomb(uint64(len(rg.types)), gOrdSize)
		for _, name := range rg.types {
			fw.ExpGolomb(uint64(len(name)), gOrdSize)
		}
		fw.ExpGolomb(1, gOrdSize)
		fw.ExpGolomb(rg.typ[0], gOrdType)
		fw.ExpGolomb(0, gOrdShared) // shares nothing
		fw.ExpGolomb(64, gOrdSuffix)
		for _, name := range rg.types {
			fw.Raw(name)
		}
	}
	var short bytes.Buffer
	fw := flat.NewWriter(&short, engine.SnapshotMagic)
	hdr, _ := json.Marshal(&h)
	fw.Bytes(hdr)
	longName(fw)
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(&short); err == nil || !strings.Contains(err.Error(), "unexpected EOF") {
		t.Fatalf("name longer than the stream: LoadEngine returned %v", err)
	}
}

// snapshotParts takes a snapshot apart: its header, graph, the index the
// loaded engine holds — the index section with the two-edge metapaths the
// header holds counted from the graph, as LoadEngine decodes it — and each
// class's log-likelihood and weights in the header's order.
func snapshotParts(t testing.TB, data []byte) (engine.SnapshotHeader, *graph.Graph, *index.Index, []core.Model) {
	t.Helper()
	fr, err := flat.NewReader(bytes.NewReader(data), engine.SnapshotMagic)
	if err != nil {
		t.Fatal(err)
	}
	var h engine.SnapshotHeader
	if err := json.Unmarshal(fr.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	g, err := graph.Decode(fr)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Decode(fr, g, headerMetagraphs(t, h), matchedOf(h))
	if err != nil {
		t.Fatal(err)
	}
	models := make([]core.Model, len(h.Classes))
	for i, sc := range h.Classes {
		models[i] = core.Model{LogLikelihood: math.Float64frombits(fr.Uint64()), W: make([]float64, len(sc.Kept)), Iterations: sc.Iterations}
		for k := range models[i].W {
			models[i].W[k] = math.Float64frombits(fr.Uint64())
		}
	}
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	return h, g, ix, models
}

// headerMetagraphs builds the metagraphs h lists.
func headerMetagraphs(t testing.TB, h engine.SnapshotHeader) []*metagraph.Metagraph {
	t.Helper()
	ms := make([]*metagraph.Metagraph, len(h.Metas))
	for i, sm := range h.Metas {
		m, err := metagraph.New(sm.Types, sm.Edges)
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	return ms
}

// matchedOf is, per metagraph h lists, whether h matched it.
func matchedOf(h engine.SnapshotHeader) []bool {
	matched := make([]bool, len(h.Metas))
	for _, i := range h.Matched {
		if i >= 0 && i < len(matched) {
			matched[i] = true
		}
	}
	return matched
}

// craft writes a snapshot of h, g's graph section (the one writeGraph
// writes, if it is not nil), ix's index section as Save writes it beside g
// and the classes' models — checksum valid. With models nil, each class of
// h gets a weight per kept metagraph, so only what the caller edited is
// wrong with the stream.
func craft(t testing.TB, h engine.SnapshotHeader, g *graph.Graph, writeGraph func(*flat.Writer), ix *index.Index, models []core.Model) []byte {
	t.Helper()
	return writeSnapshot(t, h, g, writeGraph, func(fw *flat.Writer) { index.Encode(fw, ix) }, models)
}

// writeSnapshot is craft with the index section writeSection writes.
func writeSnapshot(t testing.TB, h engine.SnapshotHeader, g *graph.Graph, writeGraph, writeSection func(*flat.Writer), models []core.Model) []byte {
	t.Helper()
	hdr, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	fw := flat.NewWriter(&out, engine.SnapshotMagic)
	fw.Bytes(hdr)
	if writeGraph != nil {
		writeGraph(fw)
	} else {
		graph.Encode(fw, g)
	}
	writeSection(fw)
	for i, sc := range h.Classes {
		m := core.Model{LogLikelihood: -1, W: slices.Repeat([]float64{0.5}, len(sc.Kept))}
		if models != nil {
			m = models[i]
		}
		fw.Uint64(math.Float64bits(m.LogLikelihood))
		for _, w := range m.W {
			fw.Uint64(math.Float64bits(w))
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// loadCrafted loads what craft wrote from the parts of a snapshot.
func loadCrafted(t testing.TB, h engine.SnapshotHeader, g *graph.Graph, ix *index.Index, models []core.Model) *Engine {
	t.Helper()
	eng, err := LoadEngine(bytes.NewReader(craft(t, h, g, nil, ix, models)))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// snapshotOf is eng's snapshot.
func snapshotOf(t testing.TB, eng *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recraft re-encodes a snapshot with its header edited and everything else
// as it was.
func recraft(t *testing.T, data []byte, edit func(h *engine.SnapshotHeader)) []byte {
	t.Helper()
	h, g, ix, _ := snapshotParts(t, data)
	edit(&h)
	return craft(t, h, g, nil, ix, nil)
}

// rawGraph is a graph section as its fields, for writing broken ones.
type rawGraph struct {
	types []string
	typ   []uint64 // per node
	names []string // per node
	above [][]uint64
}

// rawOf takes g's section apart into fresh slices.
func rawOf(g *graph.Graph) rawGraph {
	rg := rawGraph{types: g.Types().Names()}
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		rg.typ = append(rg.typ, uint64(g.Type(v)))
		rg.names = append(rg.names, g.Name(v))
		var gaps []uint64
		prev := v
		for _, u := range slices.Sorted(slices.Values(g.Neighbors(v))) {
			if u > v {
				gaps = append(gaps, uint64(u-prev))
				prev = u
			}
		}
		rg.above = append(rg.above, gaps)
	}
	return rg
}

// The exp-Golomb orders of the graph section's fields, as
// internal/graph/section.go writes them.
const (
	gOrdSize   = 0
	gOrdType   = 0
	gOrdShared = 2
	gOrdSuffix = 1
	gOrdDegree = 0
	gOrdGap    = 5
)

// write writes rg as a graph section; a value past the largest its
// field's code holds (2^64-1) is written as that largest value.
func (rg rawGraph) write(fw *flat.Writer) {
	eg := func(v uint64, k uint) { fw.ExpGolomb(min(v, math.MaxUint64-1<<k), k) }
	eg(uint64(len(rg.types)), gOrdSize)
	for _, name := range rg.types {
		eg(uint64(len(name)), gOrdSize)
	}
	eg(uint64(len(rg.typ)), gOrdSize)
	for v := range rg.typ {
		eg(rg.typ[v], gOrdType)
		eg(0, gOrdShared) // shares nothing with the previous name: legal, if long
		eg(uint64(len(rg.names[v])), gOrdSuffix)
	}
	for _, name := range rg.types {
		fw.Raw(name)
	}
	for _, name := range rg.names {
		fw.Raw(name)
	}
	for _, gaps := range rg.above {
		eg(uint64(len(gaps)), gOrdDegree)
		for _, d := range gaps {
			eg(d, gOrdGap)
		}
	}
	fw.Align()
}

// fullSnapshot saves a trained, updated engine — the richest wire shape
// (graph, epoch, LSN, matched parts, classes) — for the corruption tests.
func fullSnapshot(t testing.TB) []byte {
	t.Helper()
	eng, g := toyEngine(t)
	eng.Train("classmate", classmateExamples(g))
	if _, err := eng.ApplyUpdate(Delta{
		Nodes: []DeltaNode{{Type: "user", Value: "Zoe"}},
		Edges: []Edge{{U: NodeID(g.NumNodes()), V: g.NodeByName("College A")}},
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotEveryPrefixTruncationErrors: a crash mid-save (the reason
// semproxd stages snapshots through a temp file) leaves a prefix; loading
// any strict prefix must return an error, never succeed and never panic.
func TestSnapshotEveryPrefixTruncationErrors(t *testing.T) {
	data := fullSnapshot(t)
	for i := 0; i < len(data); i++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("LoadEngine panicked on %d-byte prefix of %d: %v", i, len(data), r)
				}
			}()
			if _, err := LoadEngine(bytes.NewReader(data[:i])); err == nil {
				t.Fatalf("prefix of %d/%d bytes loaded without error", i, len(data))
			}
		}()
	}
}

// TestSnapshotBitFlipsNeverPanic flips two bits of every byte of the
// snapshot, one at a time: each load must fail — never panic, and never succeed. Structure
// alone cannot promise that (a flip inside a Count, a weight or a node name
// parses fine and would serve wrong answers); the CRC-32C trailer does, and
// that is what lets semproxd load operator-provided files straight off disk
// and a follower trust what it pulled over the network.
func TestSnapshotBitFlipsNeverPanic(t *testing.T) {
	data := fullSnapshot(t)
	for pos := range data {
		for _, bit := range []int{pos % 8, (pos + 4) % 8} {
			mutated := bytes.Clone(data)
			mutated[pos] ^= 1 << bit
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("LoadEngine panicked on bit %d of byte %d flipped: %v", bit, pos, r)
					}
				}()
				if _, err := LoadEngine(bytes.NewReader(mutated)); err == nil {
					t.Fatalf("LoadEngine accepted a snapshot with bit %d of byte %d/%d flipped", bit, pos, len(data))
				}
			}()
		}
	}
}

// TestSnapshotStoresEachRowOnce pins the size side of one index per epoch:
// a snapshot is its header, the graph section, ONE index section and, per
// class, a log-likelihood and the weights — so a second class costs its
// weights and its header entry, never a second copy of the rows.
func TestSnapshotStoresEachRowOnce(t *testing.T) {
	eng, g := toyEngine(t)
	TrainDualStage(eng, "classmate2", classmateExamples(g), 2)
	eng.Train("classmate", classmateExamples(g))
	var two bytes.Buffer
	if err := eng.Save(&two); err != nil {
		t.Fatal(err)
	}

	header := func(data []byte) int {
		fr, err := flat.NewReader(bytes.NewReader(data), engine.SnapshotMagic)
		if err != nil {
			t.Fatal(err)
		}
		hdr := len(fr.Bytes())
		if fr.Err() != nil {
			t.Fatal(fr.Err())
		}
		return hdr
	}
	h, g, ix, models := snapshotParts(t, two.Bytes())
	var graphSection bytes.Buffer
	ixFile := indexBytes(t, ix)
	gw := flat.NewWriter(&graphSection, "")
	graph.Encode(gw, g)
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	floats := 0
	for _, m := range models {
		floats += 1 + len(m.W)
	}
	hdr, graphBytes := header(two.Bytes()), graphSection.Len()-4
	// Framing: magic and checksum, and the header's length prefix of at
	// most 10 bytes; the index section's own checksum only loosens the
	// bound.
	const framing = len(engine.SnapshotMagic) + 4 + 10
	if limit := hdr + graphBytes + len(ixFile) + 8*floats + framing; two.Len() > limit {
		t.Fatalf("snapshot with %d classes is %d bytes; header %d + graph %d + one index %d + %d floats + framing allow %d",
			len(models), two.Len(), hdr, graphBytes, len(ixFile), floats, limit)
	}

	// The same epoch without the second class prices that class alone.
	second := slices.IndexFunc(h.Classes, func(sc engine.SnapshotClass) bool { return sc.Name == "classmate" })
	secondW := len(models[second].W)
	h.Classes, models = slices.Delete(h.Classes, second, second+1), slices.Delete(models, second, second+1)
	base := craft(t, h, g, nil, ix, models)
	hdrBase := header(base)
	cost := two.Len() - len(base)
	if want := (hdr - hdrBase) + 8*(1+secondW); cost > want+1 { // +1: the header's length prefix may grow a byte
		t.Fatalf("the second class cost %d bytes; its header entry and weights are %d", cost, want)
	}
}

// TestSnapshotClaimsCostWhatTheStreamDelivers: a follower loads its
// snapshot off the network, so a short stream that announces a gigantic
// header, type registry, node table, name, index runs or index counts
// must be refused for what it sent, not allocated for what it claims.
func TestSnapshotClaimsCostWhatTheStreamDelivers(t *testing.T) {
	fr, err := flat.NewReader(bytes.NewReader(fullSnapshot(t)), engine.SnapshotMagic)
	if err != nil {
		t.Fatal(err)
	}
	hdr := fr.Bytes()
	g, err := graph.Decode(fr)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]func(w *flat.Writer){
		"header of 2^40 bytes": func(w *flat.Writer) { w.Uvarint(1 << 40) },
		"graph of MaxTypes types": func(w *flat.Writer) {
			w.Bytes(hdr)
			w.ExpGolomb(graph.MaxTypes, gOrdSize)
			w.ExpGolomb(4, gOrdSize) // the first name's length; nothing else follows
		},
		"graph of 2^31-1 nodes": func(w *flat.Writer) {
			w.Bytes(hdr)
			w.ExpGolomb(1, gOrdSize)
			w.ExpGolomb(4, gOrdSize)
			w.ExpGolomb(math.MaxInt32, gOrdSize)
			w.ExpGolomb(0, gOrdType) // the first node; nothing else follows
			w.ExpGolomb(0, gOrdShared)
			w.ExpGolomb(5, gOrdSuffix)
		},
		"node name of 2^40 bytes": func(w *flat.Writer) {
			w.Bytes(hdr)
			w.ExpGolomb(1, gOrdSize)
			w.ExpGolomb(4, gOrdSize)
			w.ExpGolomb(1, gOrdSize)
			w.ExpGolomb(0, gOrdType)
			w.ExpGolomb(0, gOrdShared)
			w.ExpGolomb(1<<40, gOrdSuffix)
			w.Raw("user")
		},
		// The index section's orders (internal/index/io.go): 0 for the sizes, 1
		// for a node's gap, 3 for a run head, 4 for a reference and a
		// residual's gap, 2 for the residuals' head, 1 for a divisor.
		"index of 2^31-1 written counts": func(w *flat.Writer) {
			w.Bytes(hdr)
			graph.Encode(w, g)
			w.ExpGolomb(1, 0)    // numMeta
			w.ExpGolomb(1, 0)    // one run
			w.ExpGolomb(1, 0)    // of one posting:
			w.ExpGolomb(1, 1)    // node 0's
			w.ExpGolomb(1<<1, 3) // one run, of metagraph 0,
			w.ExpGolomb(0, 4)    // no reference,
			w.ExpGolomb(3, 2)    // one residual of count 1,
			w.ExpGolomb(1, 4)    // node 1
			w.ExpGolomb(0, 1)    // metagraph 0's counts are written
			w.ExpGolomb(math.MaxInt32, 0)
		},
		"index of 2^31-1 runs": func(w *flat.Writer) {
			w.Bytes(hdr)
			graph.Encode(w, g)
			w.ExpGolomb(1, 0) // numMeta
			w.ExpGolomb(math.MaxInt32, 0)
			w.ExpGolomb(math.MaxInt32/2, 0) // the most postings a claim may
			w.ExpGolomb(1, 1)               // the first node; nothing else follows
		},
		"index of 2^40 runs and postings": func(w *flat.Writer) {
			w.Bytes(hdr)
			graph.Encode(w, g)
			w.ExpGolomb(1, 0)
			w.ExpGolomb(1<<40, 0)
			w.ExpGolomb(1<<40, 0)
		},
	} {
		var buf bytes.Buffer
		w := flat.NewWriter(&buf, engine.SnapshotMagic)
		body(w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := LoadEngine(bytes.NewReader(buf.Bytes()))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a %d-byte stream loaded", name, buf.Len())
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Fatalf("%s: a %d-byte stream cost %d bytes of allocation (%v)", name, buf.Len(), got, err)
		}
	}

	// A graph section of one hub and 46 342 members of the type a matched
	// two-edge metapath pairs through it, and an index section without
	// rows: counted from the graph, the members would pair into 2^30
	// postings. The loader counts a metapath only while what it can pair
	// stays within two postings per bit the stream delivered ahead of the
	// section, so it leaves this one to the section and reads on to the
	// classes, which the stream does not hold. Decoding the graph is all the
	// load may cost: no more than the index's own rate,
	// maxPostingsPerByte·postingAlloc = 8·96 bytes per byte received.
	var h engine.SnapshotHeader
	if err := json.Unmarshal(hdr, &h); err != nil {
		t.Fatal(err)
	}
	ms := headerMetagraphs(t, h)
	k := slices.IndexFunc(h.Matched, func(i int) bool { return index.IsTwoEdgeMetapath(ms[i]) })
	if k < 0 {
		t.Fatalf("the snapshot matched %v, no two-edge metapath", h.Matched)
	}
	m, centre := ms[h.Matched[k]], 0
	for m.Degree(centre) != 2 {
		centre++
	}
	hb := graph.NewBuilder()
	for id := range g.NumTypes() {
		hb.Types().Register(g.Types().Name(graph.TypeID(id)))
	}
	hub := hb.AddNode(g.Types().Name(m.Type(centre)), "hub")
	for i := range 46342 { // 46342·46341/2 > 2^30
		hb.AddEdge(hub, hb.AddNode(g.Types().Name(m.Type((centre+1)%3)), fmt.Sprint(i)))
	}
	var buf bytes.Buffer
	w := flat.NewWriter(&buf, engine.SnapshotMagic)
	w.Bytes(hdr)
	graph.Encode(w, hb.MustBuild())
	index.Encode(w, index.Empty(len(h.Metas)))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = LoadEngine(bytes.NewReader(buf.Bytes()))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("one hub: a %d-byte stream without classes loaded", buf.Len())
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one hub: a %d-byte stream cost %d bytes of allocation (%v)", buf.Len(), got, err)
	if got > uint64(8*96*buf.Len()) {
		t.Fatalf("one hub: a %d-byte stream cost %d bytes of allocation (%v)", buf.Len(), got, err)
	}
}

// hasCountAbove1 reports whether some pair row of eng holds a count above 1.
func hasCountAbove1(t testing.TB, eng *Engine) bool {
	_, g, ix, _ := snapshotParts(t, snapshotOf(t, eng))
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		for _, u := range ix.Partners(v) {
			pv := ix.PairVec(v, u)
			for i := 0; i < pv.Len(); i++ {
				if _, c := pv.At(i); c > 1 {
					return true
				}
			}
		}
	}
	return false
}

// FuzzLoadEngine feeds arbitrary bytes through LoadEngine: it may refuse
// them, but an engine it returns must answer from every node without a
// panic.
func FuzzLoadEngine(f *testing.F) {
	data := fullSnapshot(f)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(data[:len(data)-4])
	f.Add([]byte(engine.SnapshotMagic))
	f.Add([]byte("not a snapshot"))
	// Lifecycle-shaped, small enough to fuzz: LinkedIn at MaxNodes 4,
	// whose rows mix metagraphs and hold counts above 1.
	ds := dataset.LinkedIn(dataset.Config{Users: 40, Seed: 1, NoiseRate: 0.05})
	opts := DefaultOptions()
	opts.Mining = mining.Options{MaxNodes: 4, MinSupport: 2}
	opts.Train.Restarts, opts.Train.MaxIters = 1, 20
	life, err := NewEngine(ds.G, "user", opts)
	if err != nil {
		f.Fatal(err)
	}
	labels := ds.Classes["college"]
	life.Train("college", eval.MakeExamples(labels, labels.Queries(), ds.Users(), 20, 1))
	if above := hasCountAbove1(f, life); life.NumMetagraphs() < 4 || !above {
		f.Fatalf("the lifecycle-shaped seed has %d metagraphs, counts above 1: %v", life.NumMetagraphs(), above)
	}
	var lb bytes.Buffer
	if err := life.Save(&lb); err != nil {
		f.Fatal(err)
	}
	f.Add(lb.Bytes())
	// Each refusal of the index section's counts, in a section of one run
	// of a metagraph it carries (no two-edge metapath): node 0's, holding
	// node 1 once. Under a divisor of 2, which node 1's sum of 1 does not
	// divide; with counts written for nodes 0, 1 and 2, which has no run;
	// and with a written count of 0.
	lh, lg, _, lmodels := snapshotParts(f, lb.Bytes())
	lms := headerMetagraphs(f, lh)
	carried := lh.Matched[slices.IndexFunc(lh.Matched, func(i int) bool { return !index.IsTwoEdgeMetapath(lms[i]) })]
	for _, c := range []struct {
		want   string
		counts [][2]uint64 // each value and its order
	}{
		{"does not divide", [][2]uint64{{2, 1}}},
		{"no run of metagraph", [][2]uint64{{0, 1}, {3, 0}, {1, 1}, {1, 2}, {1, 1}, {1, 2}, {1, 1}, {1, 2}}},
		{"count of 0", [][2]uint64{{0, 1}, {2, 0}, {1, 1}, {0, 2}, {1, 1}, {1, 2}}},
	} {
		raw := writeSnapshot(f, lh, lg, nil, func(fw *flat.Writer) {
			fw.ExpGolomb(uint64(len(lms)), 0)
			fw.ExpGolomb(1, 0) // one run
			fw.ExpGolomb(1, 0) // of one posting:
			fw.ExpGolomb(1, 1) // node 0's,
			fw.ExpGolomb(1<<bits.Len(uint(len(lms)))|uint64(carried), 3)
			fw.ExpGolomb(0, 4) // no reference,
			fw.ExpGolomb(3, 2) // one residual of count 1,
			fw.ExpGolomb(1, 4) // node 1
			for _, v := range c.counts {
				fw.ExpGolomb(v[0], uint(v[1]))
			}
			fw.Align()
		}, lmodels)
		if _, err := LoadEngine(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), c.want) {
			f.Fatalf("the counts seed refused for %q loads: %v", c.want, err)
		}
		f.Add(raw)
	}
	// read_direct-shaped: MaxNodes 3, one class holding one metagraph, the
	// two-edge metapath user–college–user, whose rows the section leaves
	// out and the load counts from the graph; and names that share
	// prefixes (user-1, user-10, …), but none between the last attribute and
	// user-0. The same stream with that metapath's rows in its section, and
	// under the v11 magic, reach the two refusals that guard the format.
	opts.Mining.MaxNodes = 3
	direct, err := NewEngine(ds.G, "user", opts)
	if err != nil {
		f.Fatal(err)
	}
	direct.Train("college", eval.MakeExamples(labels, labels.Queries(), ds.Users(), 20, 1))
	lb.Reset()
	if err := direct.Save(&lb); err != nil {
		f.Fatal(err)
	}
	dh, dg, dix, _ := snapshotParts(f, lb.Bytes())
	if len(dh.Matched) != 1 || !index.IsTwoEdgeMetapath(direct.Metagraphs()[dh.Matched[0]]) || !hasCountAbove1(f, direct) {
		f.Fatalf("the read_direct-shaped seed holds metagraphs %v, counts above 1: %v", dh.Matched, hasCountAbove1(f, direct))
	}
	f.Add(lb.Bytes())
	f.Add(writeSnapshot(f, dh, dg, nil, func(fw *flat.Writer) { index.Encode(fw, dix) }, nil))
	f.Add(append([]byte("SPXS\x0b"), lb.Bytes()[len(engine.SnapshotMagic):]...))
	// The snapshot shape written before training dropped the metagraphs no
	// class weighs — every metagraph matched, zero weights in a kept set —
	// and a class that weighs nothing, whose kept set is empty.
	_, pre := preChangeSnapshot(f)
	f.Add(pre)
	empty, tg := toyEngine(f)
	empty.Train("classmate", classmateExamples(tg))
	installPruned(empty, "nothing", every(empty.NumMetagraphs()), make([]float64, empty.NumMetagraphs()))
	var eb bytes.Buffer
	if err := empty.Save(&eb); err != nil {
		f.Fatal(err)
	}
	if h, _, _, _ := snapshotParts(f, eb.Bytes()); len(h.Classes) != 2 || len(h.Classes[1].Kept) != 0 {
		f.Fatalf("the empty-class seed saves classes %+v", h.Classes)
	}
	f.Add(eb.Bytes())
	// More metagraphs than a 64-bit mask holds: the snapshot's own index
	// repeated until it spans over 64, every copy matched.
	h, g, ix, _ := snapshotParts(f, data)
	parts, metas := []*index.Index{}, []engine.SnapshotMetagraph{}
	for len(metas) <= 64 {
		parts, metas = append(parts, ix), append(metas, h.Metas...)
	}
	h.Metas, h.Matched = metas, nil
	for i := range metas {
		h.Matched = append(h.Matched, i)
	}
	wide := craft(f, h, g, nil, index.Merge(parts...), nil)
	if eng, err := LoadEngine(bytes.NewReader(wide)); err != nil || eng.NumMetagraphs() <= 64 {
		f.Fatalf("the wide seed loads as %v, %v", eng, err)
	}
	f.Add(wide)
	// The toy engine after an update that puts four users into College A,
	// whose runs copy each other's partners.
	upd, ug := toyEngine(f)
	upd.Train("classmate", classmateExamples(ug))
	d := Delta{}
	for i := range 4 {
		d.Nodes = append(d.Nodes, DeltaNode{Type: "user", Value: fmt.Sprintf("new-%d", i)})
		d.Edges = append(d.Edges, Edge{U: NodeID(ug.NumNodes() + i), V: ug.NodeByName("College A")})
	}
	if _, err := upd.ApplyUpdate(d); err != nil {
		f.Fatal(err)
	}
	var ub bytes.Buffer
	if err := upd.Save(&ub); err != nil {
		f.Fatal(err)
	}
	f.Add(ub.Bytes())
	// The toy snapshot with a bit of padding set — the first, from the
	// graph section on, that LoadEngine refuses as padding — and its
	// checksum made right again, so only the padding is wrong.
	padded := false
	for i := len(engine.SnapshotMagic); i < len(data)-4 && !padded; i++ {
		for bit := 0; bit < 8 && !padded; bit++ {
			bad := bytes.Clone(data)
			bad[i] ^= 1 << bit
			binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.Checksum(bad[:len(bad)-4], crc32.MakeTable(crc32.Castagnoli)))
			if _, err := LoadEngine(bytes.NewReader(bad)); err != nil && strings.Contains(err.Error(), "padding") {
				f.Add(bad)
				padded = true
			}
		}
	}
	if !padded {
		f.Fatal("no bit of the snapshot is padding")
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		eng, err := LoadEngine(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := NodeID(eng.Graph().NumNodes())
		for _, class := range eng.Classes() {
			for q := NodeID(-1); q <= n; q++ {
				_, _ = eng.Query(class, q, 3)
				_, _ = eng.Proximity(class, q, n-q)
			}
		}
	})
}

// TestSnapshotBytesBudget is the snapshot's size ratchet: at each shape
// benchmark/ boots, on the graphs of seeds 1–3, Save writes no more than
// the KiB recorded here, today's sizes rounded up. A codec change that
// grows a snapshot fails here, not in a benchmark run; one that shrinks it
// lowers these.
func TestSnapshotBytesBudget(t *testing.T) {
	budgetKiB := map[string][3]int{"read_direct": {40, 40, 40}, "lifecycle": {36, 38, 35}}
	for _, sh := range workloadShapes() {
		for seed := int64(1); seed <= 3; seed++ {
			var buf bytes.Buffer
			if err := sh.build(seed).Save(&buf); err != nil {
				t.Fatal(err)
			}
			if budget := budgetKiB[sh.name][seed-1] << 10; buf.Len() > budget {
				t.Errorf("%s, seed %d: Save wrote %d bytes, over its budget of %d", sh.name, seed, buf.Len(), budget)
			}
		}
	}
}

// TestSnapshotSectionBytes pins how many bytes each section of the
// read_direct and lifecycle snapshots (seed 1) takes — the numbers DESIGN.md
// "Snapshot format" quotes: it takes Save's snapshot apart and writes the
// magic, the header, the graph section, the index section and the classes'
// weights again the way Save does, reading flat.Writer.Offset between them,
// and holds the whole to Save's own bytes. Run it with -v to see the sizes:
//
//	go test -run TestSnapshotSectionBytes -v .
func TestSnapshotSectionBytes(t *testing.T) {
	want := map[string][5]int64{ // magic, header, graph, index, classes
		"read_direct": {5, 469, 39527, 1, 16},
		"lifecycle":   {5, 1241, 3901, 30688, 88},
	}
	for _, sh := range workloadShapes() {
		eng := sh.build(1)
		var saved bytes.Buffer
		if err := eng.Save(&saved); err != nil {
			t.Fatal(err)
		}
		h, g, ix, models := snapshotParts(t, saved.Bytes())
		hdr, err := json.Marshal(&h)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		fw := flat.NewWriter(&buf, engine.SnapshotMagic)
		offs := []int64{0, fw.Offset()}
		fw.Bytes(hdr)
		offs = append(offs, fw.Offset())
		graph.Encode(fw, g)
		offs = append(offs, fw.Offset())
		index.Encode(fw, ix)
		offs = append(offs, fw.Offset())
		for _, m := range models {
			fw.Uint64(math.Float64bits(m.LogLikelihood))
			for _, wi := range m.W {
				fw.Uint64(math.Float64bits(wi))
			}
		}
		offs = append(offs, fw.Offset())
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), saved.Bytes()) {
			t.Fatalf("%s: the sections written apart are not the %d bytes Save writes", sh.name, saved.Len())
		}
		var got [5]int64
		for i := range got {
			got[i] = offs[i+1] - offs[i]
		}
		t.Logf("%s: magic %d, header %d, graph %d, index %d, classes %d, checksum 4: %d bytes", sh.name, got[0], got[1], got[2], got[3], got[4], saved.Len())
		if got != want[sh.name] {
			t.Errorf("%s: sections of %v bytes, want %v", sh.name, got, want[sh.name])
		}
	}
}

// TestSnapshotRoundTripsAnyNodeName: a node name an update may carry —
// spaces at either end, line breaks, a tab, a leading '#' — resolves to the
// same node and reads back byte for byte after Save → LoadEngine, so a
// replica that boots from the snapshot answers for it as its primary does.
func TestSnapshotRoundTripsAnyNodeName(t *testing.T) {
	names := []string{" lead", "trail ", " both ", "a\nb", "a\r\nb", "line\n", "tab\there", "\tlead", "#hash", "# comment", "E 0 1"}
	eng, g := toyEngine(t)
	eng.Train("classmate", classmateExamples(g))
	d := Delta{}
	for i, name := range names {
		d.Nodes = append(d.Nodes, DeltaNode{Type: "user", Value: name})
		d.Edges = append(d.Edges, Edge{U: NodeID(g.NumNodes() + i), V: g.NodeByName("College A")})
	}
	if _, err := eng.ApplyUpdate(d); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("a snapshot of names an update accepted does not load: %v", err)
	}
	for _, name := range names {
		v := eng.Graph().NodeByName(name)
		if v == InvalidNode {
			t.Fatalf("%q: the saving engine does not resolve it", name)
		}
		if got := loaded.Graph().NodeByName(name); got != v {
			t.Errorf("%q: resolves to %d after the round trip, want %d", name, got, v)
		}
		if got := loaded.Graph().Name(v); got != name {
			t.Errorf("node %d: named %q after the round trip, want %q", v, got, name)
		}
		want, err1 := eng.Query("classmate", v, 0)
		got, err2 := loaded.Query("classmate", v, 0)
		if err1 != nil || err2 != nil || !slices.Equal(got, want) {
			t.Errorf("%q: query answers %v/%v, want %v/%v", name, got, err2, want, err1)
		}
	}
	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatal("save → load → save drifted")
	}
}
