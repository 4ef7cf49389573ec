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

// checkTwoEdge holds the rows the index reads from the graph for every
// two-edge metapath on g (Count's parts, one metapath each and all of them
// in one index) to the rows SymISO's MatchParts counts into runs, through
// every reader: NodeVec and NodeDot of every node, PairVec and PairDot of
// every pair, Partners, Accumulate's sums and touched partners, NodeDots,
// NumPairs and MetaSupport, and the content the rows lay out to. The
// weights are uneven and some are 0, so a term added out of order or where
// the runs add none changes the bits of a sum.
func checkTwoEdge(t *testing.T, g *graph.Graph) {
	ms := twoEdgeMetapaths(t, g.NumTypes())
	parts := Count(g, ms)
	want, _ := MatchParts(ms, func() match.Matcher { return match.NewSymISO(g) }, 1)
	w := make([]float64, len(ms))
	for i := range w {
		if i%3 != 2 {
			w[i] = 1 / float64(i+3)
		}
	}
	for i, m := range ms {
		if !IsTwoEdgeMetapath(m) {
			t.Fatalf("%v is not taken for a two-edge metapath", m)
		}
		if len(parts[i].flat.head) != 0 {
			t.Fatalf("%v: Count laid out runs for a metapath the graph serves", m)
		}
		sameReads(t, fmt.Sprint(m, " on ", g), g, parts[i], want[i], []float64{0.7})
	}
	sameReads(t, fmt.Sprint("all on ", g), g, Merge(parts...), Merge(want...), w)
}

// sameReads holds every read of got to the same read of want, on every
// node and pair of g, under w.
func sameReads(t *testing.T, label string, g *graph.Graph, got, want *Index, w []float64) {
	t.Helper()
	if ContentDigest(got) != ContentDigest(want) {
		t.Fatalf("%s: the graph serves\n%v\nSymISO counts\n%v", label, dumpPart(got), dumpPart(want))
	}
	if got.NumPairs() != want.NumPairs() || !slices.Equal(got.MetaSupport(), want.MetaSupport()) {
		t.Fatalf("%s: %d pairs and support %v; SymISO's %d and %v", label, got.NumPairs(), got.MetaSupport(), want.NumPairs(), want.MetaSupport())
	}
	dots := got.NodeDots(w)
	n := graph.NodeID(g.NumNodes())
	if len(dots) < int(n) {
		t.Fatalf("%s: NodeDots spans %d of %d nodes", label, len(dots), n)
	}
	for x := range n {
		if d := want.NodeVec(x).Dot(w); !sameRow(got.NodeVec(x), want.NodeVec(x)) || got.NodeDot(x, w) != d || dots[x] != d {
			t.Fatalf("%s: m_%d is %v, SymISO's %v", label, x, got.NodeVec(x), want.NodeVec(x))
		}
		if !slices.Equal(got.Partners(x), want.Partners(x)) {
			t.Fatalf("%s: the partners of %d are %v, SymISO's %v", label, x, got.Partners(x), want.Partners(x))
		}
		for y := range n {
			if !sameRow(got.PairVec(x, y), want.PairVec(x, y)) || got.PairDot(x, y, w) != want.PairDot(x, y, w) {
				t.Fatalf("%s: m_%d,%d is %v, SymISO's %v", label, x, y, got.PairVec(x, y), want.PairVec(x, y))
			}
		}
		acc, wacc := got.Accumulate(x, w), want.Accumulate(x, w)
		a, b := slices.Sorted(slices.Values(acc.Touched)), slices.Sorted(slices.Values(wacc.Touched))
		if !slices.Equal(a, b) {
			t.Fatalf("%s: a scan of %d touches %v, SymISO's %v", label, x, a, b)
		}
		for _, v := range a {
			if acc.PairDot(v) != wacc.PairDot(v) || acc.PairDot(v) != want.PairDot(x, v, w) {
				t.Fatalf("%s: a scan of %d sums %v for %d, SymISO's %v", label, x, acc.PairDot(v), v, wacc.PairDot(v))
			}
		}
		acc.Release()
		wacc.Release()
	}
}

// dumpPart lists a part's node rows and pair rows.
func dumpPart(ix *Index) string {
	var s strings.Builder
	nodes := ix.nodeTable()
	nodes.each(func(x graph.NodeID, row []Entry) { fmt.Fprintf(&s, "m_%d=%v ", x, row) })
	ix.pairRows(func(k PairKey, row []Entry) { fmt.Fprintf(&s, "m%v=%v ", k, row) })
	return s.String()
}

// FuzzTwoEdgeMetapath is the rows read from the graph against the
// instance search on random typed graphs of up to 16 nodes and 1–3 types,
// hubs and metapaths whose middle type is their end type included.
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

// TestDecodeEqualsFullIndex: a section Encode writes of an engine's index,
// whose two-edge metapaths the graph serves, decodes beside that graph to
// the rows SymISO counts for the matched metagraphs, on random graphs,
// metagraph sets and matched sets. A section that holds rows of a matched
// two-edge metapath or of an unmatched metagraph, or spans other than the
// metagraphs it is decoded for, is refused.
func TestDecodeEqualsFullIndex(t *testing.T) {
	section := func(write func(w *flat.Writer)) []byte {
		var buf bytes.Buffer
		w := flat.NewWriter(&buf, sectionMagic)
		write(w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	decode := func(data []byte, g *graph.Graph, ms []*metagraph.Metagraph, matched []bool) (*Index, error) {
		fr, err := flat.NewReader(bytes.NewReader(data), sectionMagic)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Decode(fr, g, ms, matched)
		if err == nil {
			err = fr.Close()
		}
		return ix, err
	}
	rng := rand.New(rand.NewSource(54))
	refused := 0
	for trial := range 12 {
		g, ms := countGraph(rng), countMetagraphs(rng)
		matched := make([]bool, len(ms))
		var held []int
		var heldMs []*metagraph.Metagraph
		for i := range matched {
			if matched[i] = rng.Intn(4) > 0; matched[i] {
				held, heldMs = append(held, i), append(heldMs, ms[i])
			}
		}
		full := SerialIndex(ms, match.NewSymISO(g)).Restrict(matched)
		served := Empty(len(ms)).AddParts(held, Count(g, heldMs))
		data := section(func(w *flat.Writer) { Encode(w, served) })
		got, err := decode(data, g, ms, matched)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if ContentDigest(got) != ContentDigest(full) || !bytes.Equal(writeBytes(t, got), writeBytes(t, full)) {
			t.Fatalf("trial %d: the decoded index is not the one SymISO counts", trial)
		}
		if _, err := decode(data, g, append(ms, ms[0]), append(matched, false)); err == nil || !strings.Contains(err.Error(), "spans") {
			t.Fatalf("trial %d: a section narrower than its metagraphs: %v", trial, err)
		}
		support := full.MetaSupport()
		for i, m := range ms {
			if support[i] && IsTwoEdgeMetapath(m) { // the full section holds rows the graph serves
				refused++
				data := section(func(w *flat.Writer) { Encode(w, full) })
				if _, err := decode(data, g, ms, matched); err == nil || !strings.Contains(err.Error(), "two-edge metapath") {
					t.Fatalf("trial %d: a section holding the rows of a two-edge metapath: %v", trial, err)
				}
				break
			}
		}
		if len(held) > 0 && !IsTwoEdgeMetapath(ms[held[0]]) && support[held[0]] {
			unmatched := slices.Clone(matched)
			unmatched[held[0]] = false
			if _, err := decode(data, g, ms, unmatched); err == nil || !strings.Contains(err.Error(), "not matched") {
				t.Fatalf("trial %d: a section holding the rows of an unmatched metagraph: %v", trial, err)
			}
		}
	}
	if refused == 0 {
		t.Fatal("no section held the rows of a two-edge metapath; want some")
	}
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

// TestPathPartOnHubCostsNothing: a hub of 46 342 users, whose
// user–college–user rows would pair more postings than an int32 position
// holds, is served from the graph without an allocation in proportion to
// its pairs: Count's part and a scan of one member cost kilobytes, and the
// member's rows are the hub's.
func TestPathPartOnHubCostsNothing(t *testing.T) {
	const users = 46342 // 46342·46341 > 2^31-1
	b := graph.NewBuilder()
	b.Types().Register("user")
	b.Types().Register("college")
	hub := b.AddNode("college", "")
	for range users {
		b.AddEdge(hub, b.AddNode("user", ""))
	}
	g := b.MustBuild()
	m, err := metagraph.New([]graph.TypeID{0, 1, 0}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ix := Count(g, []*metagraph.Metagraph{m})[0]
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("serving the hub allocated %d bytes", alloc)
	}
	if got := ix.NodeVec(1).Get(0); got != users-1 {
		t.Fatalf("m_1 = %v, want %d", got, users-1)
	}
	if got := ix.PairVec(1, 2).Get(0); got != 1 {
		t.Fatalf("m_1,2 = %v, want 1", got)
	}
	acc := ix.Accumulate(1, []float64{1})
	defer acc.Release()
	if len(acc.Touched) != users-1 || acc.PairDot(users) != 1 {
		t.Fatalf("a scan of 1 touched %d partners, m_1,%d·w = %v", len(acc.Touched), users, acc.PairDot(users))
	}
}
