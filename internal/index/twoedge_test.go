package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/flat"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metagraph"
)

// fuzzGraph builds a typed graph of at most 16 nodes and 1–3 types from
// data: the type count, a hub flag, the node count, each node's type, then
// edges as byte pairs. With the hub flag set node 0 is adjacent to every
// other node.
func fuzzGraph(data []byte) *graph.Graph {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	b := graph.NewBuilder()
	nt := 1 + next()%3
	for t := range nt {
		b.Types().Register(fmt.Sprintf("t%d", t))
	}
	hub := next()%2 == 1
	n := 1 + next()%16
	for range n {
		b.AddNode(fmt.Sprintf("t%d", next()%nt), "")
	}
	if hub {
		for v := 1; v < n; v++ {
			b.AddEdge(0, graph.NodeID(v))
		}
	}
	for len(data) >= 2 {
		b.AddEdge(graph.NodeID(next()%n), graph.NodeID(next()%n))
	}
	return b.MustBuild()
}

// twoEdgeMetapaths returns every two-edge metapath over nt types: each end
// type with each middle type, with the centre first and in the middle.
func twoEdgeMetapaths(tb testing.TB, nt int) []*metagraph.Metagraph {
	tb.Helper()
	var ms []*metagraph.Metagraph
	for end := range graph.TypeID(nt) {
		for mid := range graph.TypeID(nt) {
			for _, shape := range []struct {
				types []graph.TypeID
				edges []metagraph.Edge
			}{
				{[]graph.TypeID{end, mid, end}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}},
				{[]graph.TypeID{mid, end, end}, []metagraph.Edge{{U: 0, V: 1}, {U: 0, V: 2}}},
			} {
				m, err := metagraph.New(shape.types, shape.edges)
				if err != nil {
					tb.Fatal(err)
				}
				ms = append(ms, m)
			}
		}
	}
	return ms
}

// checkTwoEdge holds TwoEdgePart of every two-edge metapath on g to the
// part SymISO's MatchParts counts — the same rows (ContentDigest) and the
// same bytes — and every node row to the sum of its node's run.
func checkTwoEdge(t *testing.T, g *graph.Graph) {
	for _, m := range twoEdgeMetapaths(t, g.NumTypes()) {
		if !IsTwoEdgeMetapath(m) {
			t.Fatalf("%v is not taken for a two-edge metapath", m)
		}
		got, err := TwoEdgePart(g, m)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := MatchParts([]*metagraph.Metagraph{m}, func() match.Matcher { return match.NewSymISO(g) }, 1)
		if ContentDigest(got) != ContentDigest(want[0]) {
			t.Fatalf("%v on %v: the merge counts\n%v\nSymISO\n%v", m, g, dumpPart(got), dumpPart(want[0]))
		}
		if !bytes.Equal(writeBytes(t, got), writeBytes(t, want[0])) {
			t.Fatalf("%v on %v: the merge's part writes other bytes than SymISO's", m, g)
		}
		for r, x := range got.mx.keys {
			sum := uint64(0)
			lo, hi := got.flat.runs(x)
			for i := lo; i < hi; i++ {
				for _, p := range got.flat.postings(i) {
					sum += uint64(p.count)
				}
			}
			if c := got.mx.ent[got.mx.off[r]].Count; uint64(c) != sum {
				t.Fatalf("%v: m_%d is %d, its run sums to %d", m, x, c, sum)
			}
		}
	}
}

// dumpPart lists a part's node rows and pair rows.
func dumpPart(ix *Index) string {
	var s strings.Builder
	for r, x := range ix.mx.keys {
		fmt.Fprintf(&s, "m_%d=%v ", x, ix.mx.ent[ix.mx.off[r]:ix.mx.off[r+1]])
	}
	ix.pairRows(func(k PairKey, row []Entry) { fmt.Fprintf(&s, "m%v=%v ", k, row) })
	return s.String()
}

// FuzzTwoEdgeMetapath is the merge against the instance search on random
// typed graphs of up to 16 nodes and 1–3 types, hubs and metapaths whose
// middle type is their end type included.
func FuzzTwoEdgeMetapath(f *testing.F) {
	f.Add([]byte{1, 0, 6, 0, 1, 0, 1, 0, 0, 0, 1, 2, 1, 3, 1, 4, 3, 5, 3})
	f.Add([]byte{0, 1, 9})                                   // one type, a hub: A–A–A with every pair sharing node 0
	f.Add([]byte{2, 1, 16, 1, 0, 0, 2, 0, 0, 1, 0, 0, 2, 1}) // three types around a hub of type 1
	f.Add([]byte{1, 0, 8, 0, 0, 0, 0, 1, 1, 1, 1, 0, 4, 0, 5, 1, 4, 1, 5, 2, 4, 2, 5, 3, 6, 3, 7})
	f.Add([]byte{1, 0, 6, 0, 0, 0, 1, 1, 1, 0, 0, 3, 0, 4, 0, 5, 1, 3, 1, 4, 1, 5, 2, 3, 2, 4, 6, 5})                      // three lists a node
	f.Add([]byte{1, 0, 7, 0, 0, 1, 1, 1, 1, 1, 1, 0, 2, 1, 2, 0, 3, 1, 3, 0, 4, 1, 4, 0, 5, 1, 5, 0, 6, 1, 6, 0, 7, 1, 7}) // six lists a node
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTwoEdge(t, fuzzGraph(data))
	})
}

// TestDecodeCountingEqualsFullIndex: a section EncodeCounting writes,
// decoded with the rows it left out counted from the graph, is the index
// SymISO counted, byte for byte, on random graphs, metagraph sets and
// matched sets, with the stream ahead of the section long enough for none,
// some or all of the two-edge metapaths to be counted — at each length
// where the counted set changes and the one before it. A section that
// holds the rows of one it should have left out, or spans other than the
// metagraphs it is decoded for, is refused.
func TestDecodeCountingEqualsFullIndex(t *testing.T) {
	// stream writes filler bytes, then the section write writes.
	stream := func(filler int, write func(w *flat.Writer)) []byte {
		var buf bytes.Buffer
		w := flat.NewWriter(&buf, fileMagic)
		w.Bytes(make([]byte, filler))
		write(w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	decode := func(data []byte, g *graph.Graph, ms []*metagraph.Metagraph, matched []bool) (*Index, error) {
		fr, err := flat.NewReader(bytes.NewReader(data), fileMagic)
		if err != nil {
			t.Fatal(err)
		}
		fr.Bytes()
		ix, err := DecodeCounting(fr, g, ms, matched)
		if err == nil {
			err = fr.Close()
		}
		return ix, err
	}
	rng := rand.New(rand.NewSource(54))
	changes, refused := 0, 0
	for trial := range 12 {
		g, ms := countGraph(rng), countMetagraphs(rng)
		matched := make([]bool, len(ms))
		for i := range matched {
			matched[i] = rng.Intn(4) > 0
		}
		full := BuildParallel(ms, func() match.Matcher { return match.NewSymISO(g) }, 1).Restrict(matched)
		want := writeBytes(t, full)
		// counted is the set a section after filler bytes leaves out.
		counted := func(filler int) []bool {
			var off int64
			stream(filler, func(w *flat.Writer) { off = w.BitOffset() })
			c, _ := countedSlots(g, ms, matched, off)
			return c
		}
		check := func(filler int) {
			data := stream(filler, func(w *flat.Writer) { EncodeCounting(w, full, g, ms, matched) })
			got, err := decode(data, g, ms, matched)
			if err != nil {
				t.Fatalf("trial %d, %d filler bytes: %v", trial, filler, err)
			}
			if !bytes.Equal(writeBytes(t, got), want) {
				t.Fatalf("trial %d, %d filler bytes: the section with metagraphs %v counted is not the full index", trial, filler, counted(filler))
			}
			if _, err := decode(data, g, append(ms, ms[0]), append(matched, false)); err == nil || !strings.Contains(err.Error(), "spans") {
				t.Fatalf("trial %d: a section narrower than its metagraphs: %v", trial, err)
			}
			c, support, held := counted(filler), full.MetaSupport(), false
			for i := range c {
				held = held || c[i] && support[i]
			}
			if held { // the full section holds rows the decoder counts
				refused++
				data := stream(filler, func(w *flat.Writer) { Encode(w, full) })
				if _, err := decode(data, g, ms, matched); err == nil || !strings.Contains(err.Error(), "two-edge metapath") {
					t.Fatalf("trial %d: a section holding the rows it counts: %v", trial, err)
				}
			}
		}
		all := matchedTwoEdge(ms, matched)
		check(0)
		for filler := 0; !slices.Equal(counted(filler), all); filler++ {
			if next := counted(filler + 1); !slices.Equal(counted(filler), next) {
				changes++
				check(filler)
				check(filler + 1)
			}
		}
	}
	if changes == 0 || refused == 0 {
		t.Fatalf("the counted set changed %d times with the stream's length and %d sections held counted rows; want both", changes, refused)
	}
}

// matchedTwoEdge is, per metagraph of ms, whether it is a matched two-edge
// metapath: what a long enough stream counts.
func matchedTwoEdge(ms []*metagraph.Metagraph, matched []bool) []bool {
	out := make([]bool, len(ms))
	for i, m := range ms {
		out[i] = matched[i] && IsTwoEdgeMetapath(m)
	}
	return out
}

// TestIsTwoEdgeMetapath pins the shapes the merge takes: three nodes, two
// edges, ends of one type, whichever position the centre has.
func TestIsTwoEdgeMetapath(t *testing.T) {
	for _, c := range []struct {
		types []graph.TypeID
		edges []metagraph.Edge
		want  bool
	}{
		{[]graph.TypeID{0, 1, 0}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, true},
		{[]graph.TypeID{0, 0, 0}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, true},
		{[]graph.TypeID{0, 0, 1}, []metagraph.Edge{{U: 2, V: 1}, {U: 2, V: 0}}, true},
		{[]graph.TypeID{0, 1, 1}, []metagraph.Edge{{U: 2, V: 1}, {U: 2, V: 0}}, false},
		{[]graph.TypeID{0, 1, 2}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, false},
		{[]graph.TypeID{0, 1, 0}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}, false},
		{[]graph.TypeID{0, 0}, []metagraph.Edge{{U: 0, V: 1}}, false},
		{[]graph.TypeID{0, 1, 1, 0}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}, false},
		{[]graph.TypeID{0, 1, 0, 0}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 1, V: 3}}, false},
	} {
		m, err := metagraph.New(c.types, c.edges)
		if err != nil {
			t.Fatal(err)
		}
		if got := IsTwoEdgeMetapath(m); got != c.want {
			t.Errorf("%v: IsTwoEdgeMetapath = %v, want %v", m, got, c.want)
		}
		if got := len(m.SymmetricPairs()) == 1 && m.N() == 3; c.want && !got {
			t.Errorf("%v: a two-edge metapath whose symmetric pairs are %v", m, m.SymmetricPairs())
		}
	}
}

// TestTwoEdgePartRefusesPastInt32: a hub whose end-typed neighbours would
// pair into more postings than the runs' int32 positions hold is refused
// before the merge allocates them.
func TestTwoEdgePartRefusesPastInt32(t *testing.T) {
	b := graph.NewBuilder()
	b.Types().Register("user")
	b.Types().Register("college")
	hub := b.AddNode("college", "")
	for range 46342 { // 46342·46341 > 2^31-1
		b.AddEdge(hub, b.AddNode("user", ""))
	}
	g := b.MustBuild()
	m, err := metagraph.New([]graph.TypeID{0, 1, 0}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = TwoEdgePart(g, m)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "postings") {
		t.Fatalf("TwoEdgePart of a 46 342-user hub returned %v, want a refusal", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("refusing the hub allocated %d bytes", alloc)
	}
}
