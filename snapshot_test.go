package semprox

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/flat"
	"repro/internal/graph"
	"repro/internal/index"
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
// in-memory engine that wrote the snapshot — on raw counts and with
// LogTransform, which the snapshot stores as the header's option and
// LoadEngine re-applies to the raw counts it decodes.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, logTransform := range []bool{false, true} {
		t.Run(fmt.Sprintf("log=%v", logTransform), func(t *testing.T) {
			eng, g := toyEngine(t)
			eng.opts.LogTransform = logTransform
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
			// Proximity is scale-invariant and the toy's counts are nearly
			// all 1, so the answers barely tell log1p from raw counts; the
			// denominators, m_v·w by node, do.
			if got, want := loaded.cur.Load().classes["classmate"].dots, eng.cur.Load().classes["classmate"].dots; !slices.Equal(got, want) {
				t.Fatalf("loaded denominators %v, want %v", got, want)
			}
		})
	}
}

// TestSnapshotDeterministicBytes pins that saving the same engine twice —
// and saving a loaded engine — produces identical bytes, so snapshots can
// be content-addressed and diffed; with LogTransform too, whose index
// section holds the same raw counts and whose header names the transform.
func TestSnapshotDeterministicBytes(t *testing.T) {
	for _, logTransform := range []bool{false, true} {
		eng, g := toyEngine(t)
		eng.opts.LogTransform = logTransform
		eng.Train("classmate", classmateExamples(g))
		var a, b bytes.Buffer
		if err := eng.Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := eng.Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("log %v: two saves of the same engine differ", logTransform)
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
			t.Fatalf("log %v: save→load→save drifted", logTransform)
		}
		assertEngineEquivalent(t, loaded, eng, fmt.Sprintf("log %v: loaded", logTransform))
	}
}

// TestSnapshotDualStageResumesTraining saves a dual-stage engine (a strict
// subset of metagraphs matched), reloads it, and trains a NEW class on the
// loaded engine: the restored matching cache must be picked up instead of
// re-matched, and the new class must answer queries.
func TestSnapshotDualStageResumesTraining(t *testing.T) {
	eng, g := toyEngine(t)
	eng.TrainDualStage("classmate", classmateExamples(g), 2)
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
	if loaded.MatchedCount() != loaded.NumMetagraphs() {
		t.Fatal("full training on the loaded engine should match everything")
	}
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
	// scratch on the loaded engine: across updates, a compaction, and one
	// more save → load.
	rng := rand.New(rand.NewSource(17))
	for step := 0; step < 3; step++ {
		if _, err := loaded.ApplyUpdate(randomToyDelta(rng, loaded.Graph().NumNodes(), fmt.Sprintf("ds-%d", step))); err != nil {
			t.Fatal(err)
		}
		assertEngineEquivalent(t, loaded, rebuildFromScratch(t, loaded), fmt.Sprintf("loaded dual-stage, update %d", step))
	}
	assertEngineEquivalent(t, saveLoad(t, loaded), loaded, "loaded dual-stage, saved again")
	scratch := rebuildFromScratch(t, loaded)
	loaded.Compact()
	assertEngineEquivalent(t, loaded, scratch, "loaded dual-stage, compacted")
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

	// Streams whose checksum holds and whose parts contradict each other. A
	// dual-stage engine leaves metagraphs unmatched, so the header can name
	// one that has no rows.
	ds, g := toyEngine(t)
	ds.TrainDualStage("classmate", classmateExamples(g), 2)
	buf.Reset()
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ep := ds.cur.Load()
	unmatched := slices.Index(ep.matched, false)
	if unmatched < 0 {
		t.Fatal("dual stage matched everything; need an unmatched metagraph")
	}
	if _, err := LoadEngine(bytes.NewReader(recraft(t, buf.Bytes(), func(*snapHeader) {}))); err != nil {
		t.Fatalf("unedited re-encoding refused: %v", err)
	}
	for _, c := range []struct {
		name, want string
		edit       func(h *snapHeader)
	}{
		// Before SPXS\x05 this one loaded, and the first ApplyUpdate
		// dereferenced the part index it did not have.
		{"class keeps an unmatched metagraph", "keeps metagraph", func(h *snapHeader) {
			h.Classes[0].Kept = append(h.Classes[0].Kept, unmatched)
		}},
		{"class keeps a metagraph twice", "keeps metagraph", func(h *snapHeader) {
			h.Classes[0].Kept = append(h.Classes[0].Kept, h.Classes[0].Kept[0])
		}},
		{"class keeps a metagraph out of range", "keeps metagraph", func(h *snapHeader) {
			h.Classes[0].Kept = append(h.Classes[0].Kept, len(h.Metas))
		}},
		{"class keeps a negative metagraph", "keeps metagraph", func(h *snapHeader) {
			h.Classes[0].Kept[0] = -1
		}},
		{"matched metagraphs descending", "not ascending", func(h *snapHeader) { slices.Reverse(h.Matched) }},
		{"matched metagraph repeated", "not ascending", func(h *snapHeader) {
			h.Matched = append(h.Matched, h.Matched[len(h.Matched)-1])
		}},
		{"matched metagraph out of range", "not ascending", func(h *snapHeader) { h.Matched = append(h.Matched, len(h.Metas)) }},
		{"rows of an unmatched metagraph", "not matched", func(h *snapHeader) {
			drop := h.Matched[0]
			h.Matched = h.Matched[1:]
			h.Classes[0].Kept = slices.DeleteFunc(h.Classes[0].Kept, func(i int) bool { return i == drop })
		}},
		{"index narrower than the metagraph set", "spans", func(h *snapHeader) { h.Metas = append(h.Metas, h.Metas[0]) }},
		{"class listed twice", "duplicated", func(h *snapHeader) { h.Classes = append(h.Classes, h.Classes[0]) }},
	} {
		_, err := LoadEngine(bytes.NewReader(recraft(t, buf.Bytes(), c.edit)))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: LoadEngine returned %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

// recraft re-encodes a snapshot with its header edited and everything else
// as it was — checksum valid — writing each class of the edited header a
// weight per kept metagraph, so only the edit is wrong with the stream.
func recraft(t *testing.T, data []byte, edit func(h *snapHeader)) []byte {
	t.Helper()
	fr, err := flat.NewReader(bytes.NewReader(data), snapshotMagic)
	if err != nil {
		t.Fatal(err)
	}
	var h snapHeader
	if err := json.Unmarshal(fr.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	graphText := bytes.Clone(fr.Bytes())
	g, err := graph.Read(bytes.NewReader(graphText))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Decode(fr, g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	edit(&h)
	hdr, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	fw := flat.NewWriter(&out, snapshotMagic)
	fw.Bytes(hdr)
	fw.Bytes(graphText)
	index.Encode(fw, ix)
	for _, sc := range h.Classes {
		fw.Uint64(math.Float64bits(-1)) // log-likelihood
		for range sc.Kept {
			fw.Uint64(math.Float64bits(0.5))
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
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
// a snapshot is its header, the graph text, ONE index section and, per
// class, a log-likelihood and the weights — so a second class costs its
// weights and its header entry, never a second copy of the rows.
func TestSnapshotStoresEachRowOnce(t *testing.T) {
	eng, g := toyEngine(t)
	eng.TrainDualStage("classmate2", classmateExamples(g), 2)
	eng.Train("classmate", classmateExamples(g))
	var two bytes.Buffer
	if err := eng.Save(&two); err != nil {
		t.Fatal(err)
	}

	sections := func(data []byte) (hdr, graphText int) {
		fr, err := flat.NewReader(bytes.NewReader(data), snapshotMagic)
		if err != nil {
			t.Fatal(err)
		}
		hdr, graphText = len(fr.Bytes()), len(fr.Bytes())
		if fr.Err() != nil {
			t.Fatal(fr.Err())
		}
		return hdr, graphText
	}
	ep := eng.cur.Load()
	var ixFile bytes.Buffer
	if err := index.Write(&ixFile, ep.ix); err != nil {
		t.Fatal(err)
	}
	floats := 0
	for _, cm := range ep.classes {
		floats += 1 + len(cm.model.W)
	}
	hdr, graphText := sections(two.Bytes())
	// Framing: magic and checksum, and two length prefixes of at most 10
	// bytes; the index file's own magic and checksum only loosen the bound.
	const framing = len(snapshotMagic) + 4 + 2*10
	if limit := hdr + graphText + ixFile.Len() + 8*floats + framing; two.Len() > limit {
		t.Fatalf("snapshot with %d classes is %d bytes; header %d + graph %d + one index %d + %d floats + framing allow %d",
			len(ep.classes), two.Len(), hdr, graphText, ixFile.Len(), floats, limit)
	}

	// The same epoch without the second class prices that class alone.
	without := &epoch{g: ep.g, ix: ep.ix, matched: ep.matched, version: ep.version, lsn: ep.lsn,
		classes: map[string]*classModel{"classmate2": ep.classes["classmate2"]}}
	var base bytes.Buffer
	if err := eng.saveEpoch(without, &base); err != nil {
		t.Fatal(err)
	}
	hdrBase, _ := sections(base.Bytes())
	cost := two.Len() - base.Len()
	if want := (hdr - hdrBase) + 8*(1+len(ep.classes["classmate"].model.W)); cost > want+1 { // +1: the header's length prefix may grow a byte
		t.Fatalf("the second class cost %d bytes; its header entry and weights are %d", cost, want)
	}
}

// TestSnapshotClaimsCostWhatTheStreamDelivers: a follower loads its
// snapshot off the network, so a short stream that announces a gigantic
// header, graph or index must be refused for what it sent, not allocated
// for what it claims.
func TestSnapshotClaimsCostWhatTheStreamDelivers(t *testing.T) {
	fr, err := flat.NewReader(bytes.NewReader(fullSnapshot(t)), snapshotMagic)
	if err != nil {
		t.Fatal(err)
	}
	hdr, graphText := fr.Bytes(), fr.Bytes()
	if fr.Err() != nil {
		t.Fatal(fr.Err())
	}
	for name, body := range map[string]func(w *flat.Writer){
		"header of 2^40 bytes": func(w *flat.Writer) { w.Uvarint(1 << 40) },
		"graph of 2^40 bytes":  func(w *flat.Writer) { w.Bytes(hdr); w.Uvarint(1 << 40) },
		"index of 2^31-1 keys and entries": func(w *flat.Writer) {
			w.Bytes(hdr)
			w.Bytes(graphText)
			w.Uvarint(1) // numMeta
			w.Uvarint(math.MaxInt32)
			w.Uvarint(math.MaxInt32)
			w.Uvarint(1) // the first key; nothing else follows
		},
		"index of 2^40 keys and entries": func(w *flat.Writer) {
			w.Bytes(hdr)
			w.Bytes(graphText)
			w.Uvarint(1)
			w.Uvarint(1 << 40)
			w.Uvarint(1 << 40)
		},
	} {
		var buf bytes.Buffer
		w := flat.NewWriter(&buf, snapshotMagic)
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
}

// FuzzLoadEngine feeds arbitrary bytes through LoadEngine: it may refuse
// them, but an engine it returns must answer from every node without a
// panic.
func FuzzLoadEngine(f *testing.F) {
	data := fullSnapshot(f)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(data[:len(data)-4])
	f.Add([]byte(snapshotMagic))
	f.Add([]byte("not a snapshot"))
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
