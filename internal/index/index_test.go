package index

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/flat"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metagraph"
)

const (
	tUser graph.TypeID = iota
	tSurname
	tAddress
	tSchool
	tMajor
	tEmployer
	tHobby
)

// buildToy reproduces the toy social network of Fig. 1(a); names double as
// lookups in assertions.
func buildToy(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	for _, n := range []string{"user", "surname", "address", "school", "major", "employer", "hobby"} {
		b.Types().Register(n)
	}
	alice := b.AddNodeOnce("user", "Alice")
	bob := b.AddNodeOnce("user", "Bob")
	kate := b.AddNodeOnce("user", "Kate")
	jay := b.AddNodeOnce("user", "Jay")
	tom := b.AddNodeOnce("user", "Tom")
	clinton := b.AddNodeOnce("surname", "Clinton")
	green := b.AddNodeOnce("address", "123 Green St")
	white := b.AddNodeOnce("address", "456 White St")
	collegeA := b.AddNodeOnce("school", "College A")
	collegeB := b.AddNodeOnce("school", "College B")
	econ := b.AddNodeOnce("major", "Economics")
	physics := b.AddNodeOnce("major", "Physics")
	companyX := b.AddNodeOnce("employer", "Company X")
	music := b.AddNodeOnce("hobby", "Music")
	for _, e := range [][2]graph.NodeID{
		{alice, clinton}, {bob, clinton},
		{alice, green}, {bob, green},
		{kate, white}, {jay, white},
		{bob, collegeA}, {tom, collegeA},
		{kate, collegeB}, {jay, collegeB},
		{bob, econ}, {tom, econ},
		{kate, physics}, {jay, physics},
		{alice, companyX}, {kate, companyX},
		{alice, music}, {kate, music},
	} {
		b.AddEdge(e[0], e[1])
	}
	return b.MustBuild()
}

// toyMetagraphs returns M1–M4 of Fig. 2 in order.
func toyMetagraphs() []*metagraph.Metagraph {
	m1 := metagraph.MustNew([]graph.TypeID{tUser, tUser, tSchool, tMajor},
		[]metagraph.Edge{{U: 0, V: 2}, {U: 1, V: 2}, {U: 0, V: 3}, {U: 1, V: 3}})
	m2 := metagraph.MustNew([]graph.TypeID{tUser, tUser, tEmployer, tHobby},
		[]metagraph.Edge{{U: 0, V: 2}, {U: 1, V: 2}, {U: 0, V: 3}, {U: 1, V: 3}})
	m3 := metagraph.MustNew([]graph.TypeID{tUser, tAddress, tUser},
		[]metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	m4 := metagraph.MustNew([]graph.TypeID{tUser, tUser, tSurname, tAddress},
		[]metagraph.Edge{{U: 0, V: 2}, {U: 1, V: 2}, {U: 0, V: 3}, {U: 1, V: 3}})
	return []*metagraph.Metagraph{m1, m2, m3, m4}
}

func buildToyIndex(t testing.TB) (*graph.Graph, *Index) {
	g := buildToy(t)
	mgs := toyMetagraphs()
	bld := NewBuilder(len(mgs))
	matcher := match.NewSymISO(g)
	for i, m := range mgs {
		bld.AddMetagraph(i, m, matcher)
	}
	return g, bld.Build()
}

func TestPairKey(t *testing.T) {
	k1 := MakePairKey(3, 7)
	k2 := MakePairKey(7, 3)
	if k1 != k2 {
		t.Fatal("PairKey not symmetric")
	}
	x, y := k1.Nodes()
	if x != 3 || y != 7 {
		t.Fatalf("Nodes = %d,%d", x, y)
	}
}

func TestToyVectors(t *testing.T) {
	g, ix := buildToyIndex(t)
	alice := g.NodeByName("Alice")
	bob := g.NodeByName("Bob")
	kate := g.NodeByName("Kate")
	jay := g.NodeByName("Jay")
	tom := g.NodeByName("Tom")

	// Paper Fig. 1(b)/Fig. 2 ground truth:
	// Kate & Jay share one M1 instance (College B + Physics) and one M3
	// instance (456 White St).
	kj := ix.PairVec(kate, jay)
	if kj.Get(0) != 1 || kj.Get(2) != 1 || kj.Get(1) != 0 || kj.Get(3) != 0 {
		t.Fatalf("m_{Kate,Jay} = %v", kj)
	}
	// Alice & Kate share one M2 instance (Company X + Music).
	ak := ix.PairVec(alice, kate)
	if ak.Get(1) != 1 || ak.Get(0) != 0 || ak.Get(3) != 0 {
		t.Fatalf("m_{Alice,Kate} = %v", ak)
	}
	// Alice & Bob: one M4 (Clinton + Green St) and one M3 (Green St).
	ab := ix.PairVec(alice, bob)
	if ab.Get(3) != 1 || ab.Get(2) != 1 {
		t.Fatalf("m_{Alice,Bob} = %v", ab)
	}
	// Bob & Tom: one M1 (College A + Economics).
	bt := ix.PairVec(bob, tom)
	if bt.Get(0) != 1 {
		t.Fatalf("m_{Bob,Tom} = %v", bt)
	}
	// Kate & Tom share nothing.
	if v := ix.PairVec(kate, tom); v.Len() != 0 {
		t.Fatalf("m_{Kate,Tom} = %v, want empty", v)
	}

	// m_x: Alice occurs symmetrically in M2 (once), M3 (once), M4 (once).
	ax := ix.NodeVec(alice)
	if ax.Get(1) != 1 || ax.Get(2) != 1 || ax.Get(3) != 1 || ax.Get(0) != 0 {
		t.Fatalf("m_Alice = %v", ax)
	}
	// Tom only occurs in M1.
	tx := ix.NodeVec(tom)
	if tx.Get(0) != 1 || tx.Get(1) != 0 {
		t.Fatalf("m_Tom = %v", tx)
	}
}

func TestPartners(t *testing.T) {
	g, ix := buildToyIndex(t)
	kate := g.NodeByName("Kate")
	got := ix.Partners(kate)
	// Kate co-occurs with Alice (M2) and Jay (M1, M3).
	want := map[graph.NodeID]bool{g.NodeByName("Alice"): true, g.NodeByName("Jay"): true}
	if len(got) != len(want) {
		t.Fatalf("Partners(Kate) = %v", got)
	}
	for _, v := range got {
		if !want[v] {
			t.Fatalf("unexpected partner %d", v)
		}
	}
	if ix.NumPairs() == 0 {
		t.Fatal("NumPairs = 0")
	}
}

func TestDot(t *testing.T) {
	_, ix := buildToyIndex(t)
	if ix.NumMeta() != 4 {
		t.Fatalf("NumMeta = %d", ix.NumMeta())
	}
	v := SparseVec{ent: []Entry{{Meta: 0, Count: 2}, {Meta: 3, Count: 5}}}
	w := []float64{0.5, 1, 1, 0.1}
	if got := v.Dot(w); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("Dot = %f", got)
	}
	if v.Get(1) != 0 || v.Get(3) != 5 {
		t.Fatal("Get wrong")
	}
}

// TestEntryIsEightBytes: an entry is a metagraph and a count, no padding.
func TestEntryIsEightBytes(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 8 {
		t.Fatalf("Entry is %d bytes, want 8", got)
	}
}

// TestTransform: a transform is how an index reads its counts, not a copy of
// them. The transformed index shares the receiver's arenas and its built
// adjacency (which holds raw counts inline too), reads every value as
// f(count) bit for bit, and carries f through WithPatch, Compact, AddParts
// and Project; the receiver still reads raw counts.
func TestTransform(t *testing.T) {
	g, ix := buildToyIndex(t)
	kate := g.NodeByName("Kate")
	jay := g.NodeByName("Jay")
	ix.BuildAdjacency()
	tr := ix.Transform(math.Log1p)
	if !tr.HasAdjacency() || &tr.mxy.ent[0] != &ix.mxy.ent[0] {
		t.Fatal("Transform copied what it can share")
	}
	if got := tr.PairVec(kate, jay).Get(0); got != math.Log1p(1) {
		t.Fatalf("transformed count = %v", got)
	}
	scanEverything(t, tr, g.NumNodes())
	readsThrough(t, tr, math.Log1p)
	readsThrough(t, ix, nil)
	readsThrough(t, tr.Transform(nil), nil)
	patched := tr.WithPatch(selfPatch(ix, g.NumNodes()))
	for label, carried := range map[string]*Index{
		"patched":   patched,
		"compacted": patched.Compact(),
		"grown":     tr.AddParts(nil, nil),
		"projected": patched.Project([]int{2, 0}),
	} {
		t.Run(label, func(t *testing.T) { readsThrough(t, carried, math.Log1p) })
	}
}

func TestProject(t *testing.T) {
	g, ix := buildToyIndex(t)
	kate := g.NodeByName("Kate")
	jay := g.NodeByName("Jay")
	alice := g.NodeByName("Alice")

	// Keep only M3 (index 2) and M1 (index 0), renumbered to 0 and 1.
	p := ix.Project([]int{2, 0})
	if p.NumMeta() != 2 {
		t.Fatalf("NumMeta = %d", p.NumMeta())
	}
	kj := p.PairVec(kate, jay)
	if kj.Get(0) != 1 /* was M3 */ || kj.Get(1) != 1 /* was M1 */ {
		t.Fatalf("projected m_{Kate,Jay} = %v", kj)
	}
	// Alice–Kate only shared M2, which is projected away.
	if v := p.PairVec(alice, kate); v.Len() != 0 {
		t.Fatalf("projected m_{Alice,Kate} = %v, want empty", v)
	}
	// Partners must reflect the projection: Kate's only partner is Jay now.
	if got := p.Partners(kate); len(got) != 1 || got[0] != jay {
		t.Fatalf("projected Partners(Kate) = %v", got)
	}
}

func TestAsymmetricMetagraphSkipped(t *testing.T) {
	g := buildToy(t)
	asym := metagraph.MustNew([]graph.TypeID{tUser, tSchool, tMajor},
		[]metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	bld := NewBuilder(1)
	bld.AddMetagraph(0, asym, match.NewQuickSI(g))
	ix := bld.Build()
	if ix.NumPairs() != 0 {
		t.Fatalf("asymmetric metagraph produced %d pairs", ix.NumPairs())
	}
}

func TestMerge(t *testing.T) {
	g := buildToy(t)
	mgs := toyMetagraphs()
	matcher := match.NewSymISO(g)

	// Full index built at once.
	full := NewBuilder(len(mgs))
	for i, m := range mgs {
		full.AddMetagraph(i, m, matcher)
	}
	want := full.Build()

	// Same thing via per-metagraph parts and Merge.
	parts := make([]*Index, len(mgs))
	for i, m := range mgs {
		b := NewBuilder(1)
		b.AddMetagraph(0, m, matcher)
		parts[i] = b.Build()
	}
	got := Merge(parts...)

	if got.NumMeta() != want.NumMeta() {
		t.Fatalf("NumMeta %d != %d", got.NumMeta(), want.NumMeta())
	}
	if got.NumPairs() != want.NumPairs() {
		t.Fatalf("NumPairs %d != %d", got.NumPairs(), want.NumPairs())
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		for u := v + 1; int(u) < g.NumNodes(); u++ {
			for i := 0; i < want.NumMeta(); i++ {
				if got.PairVec(v, u).Get(i) != want.PairVec(v, u).Get(i) {
					t.Fatalf("pair (%d,%d) meta %d differs", v, u, i)
				}
			}
		}
		for i := 0; i < want.NumMeta(); i++ {
			if got.NodeVec(v).Get(i) != want.NodeVec(v).Get(i) {
				t.Fatalf("node %d meta %d differs", v, i)
			}
		}
		a, b := got.Partners(v), want.Partners(v)
		if len(a) != len(b) {
			t.Fatalf("partners of %d differ: %v vs %v", v, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("partners of %d differ: %v vs %v", v, a, b)
			}
		}
	}
}

// TestBuilderOutOfOrderAddMetagraph pins Build's row normalization: rows
// accumulated by descending-index AddMetagraph calls are unsorted and must
// freeze to the same index as an ascending build — with coalescing
// confined to each row (a row's first entry must never merge into the
// previous key's tail).
func TestBuilderOutOfOrderAddMetagraph(t *testing.T) {
	g := buildToy(t)
	mgs := toyMetagraphs()
	matcher := match.NewSymISO(g)

	asc := NewBuilder(len(mgs))
	for i, m := range mgs {
		asc.AddMetagraph(i, m, matcher)
	}
	want := asc.Build()

	desc := NewBuilder(len(mgs))
	for i := len(mgs) - 1; i >= 0; i-- {
		desc.AddMetagraph(i, mgs[i], matcher)
	}
	got := desc.Build()

	if !bytes.Equal(writeBytes(t, got), writeBytes(t, want)) {
		t.Fatal("out-of-order build differs from ascending build")
	}
}

func TestMergeEmpty(t *testing.T) {
	m := Merge()
	if m.NumMeta() != 0 || m.NumPairs() != 0 {
		t.Fatal("empty merge not empty")
	}
}

func TestIndexRoundTrip(t *testing.T) {
	g, ix := buildToyIndex(t)
	var buf bytes.Buffer
	if err := Write(&buf, ix); err != nil {
		t.Fatalf("Write: %v", err)
	}
	raw := append([]byte(nil), buf.Bytes()...) // Read drains the buffer
	got, err := Read(&buf, g.NumNodes())
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.NumMeta() != ix.NumMeta() || got.NumPairs() != ix.NumPairs() {
		t.Fatal("round trip changed shape")
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		for i := 0; i < ix.NumMeta(); i++ {
			if got.NodeVec(v).Get(i) != ix.NodeVec(v).Get(i) {
				t.Fatalf("node %d meta %d differs", v, i)
			}
		}
		for u := v + 1; int(u) < g.NumNodes(); u++ {
			for i := 0; i < ix.NumMeta(); i++ {
				if got.PairVec(v, u).Get(i) != ix.PairVec(v, u).Get(i) {
					t.Fatalf("pair (%d,%d) differs", v, u)
				}
			}
		}
		a, b := got.Partners(v), ix.Partners(v)
		if len(a) != len(b) {
			t.Fatalf("partners of %d differ", v)
		}
	}
	// Byte-stable output.
	var buf2 bytes.Buffer
	if err := Write(&buf2, ix); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf2.Bytes()) {
		t.Fatal("serialization not deterministic")
	}
}

var (
	sinkVec      SparseVec
	sinkPartners []graph.NodeID
	sinkFloat    float64
)

// TestZeroAllocReads pins the online-phase contract: reading vectors out
// of the frozen CSR index and dotting them against a weight vector must
// not allocate.
func TestZeroAllocReads(t *testing.T) {
	g, ix := buildToyIndex(t)
	kate := g.NodeByName("Kate")
	jay := g.NodeByName("Jay")
	w := make([]float64, ix.NumMeta())
	for i := range w {
		w[i] = float64(i + 1)
	}
	v := ix.PairVec(kate, jay)
	if v.Len() == 0 {
		t.Fatal("empty test vector")
	}
	checks := []struct {
		name string
		fn   func()
	}{
		{"NodeVec", func() { sinkVec = ix.NodeVec(kate) }},
		{"PairVec", func() { sinkVec = ix.PairVec(kate, jay) }},
		{"Partners", func() { sinkPartners = ix.Partners(kate) }},
		{"SparseVec.Dot", func() { sinkFloat = v.Dot(w) }},
		{"SparseVec.Get", func() { sinkFloat = v.Get(2) }},
	}
	for _, c := range checks {
		if allocs := testing.AllocsPerRun(200, c.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f allocs/op, want 0", c.name, allocs)
		}
	}
}

func TestIndexReadErrors(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("garbage"), 8); err == nil {
		t.Fatal("Read accepted garbage")
	}
}

// TestIndexReadRejectsCorruptTables feeds structurally plausible but
// invariant-violating files through Read; each must fail loudly instead of
// panicking later at query time. The encoder validates nothing — deltas and
// counts of broken tables simply wrap — so Write turns each hand-built
// Index into exactly the bytes a corrupt file would hold.
func TestIndexReadRejectsCorruptTables(t *testing.T) {
	one := []Entry{{Meta: 0, Count: 1}}
	two := []Entry{{Meta: 0, Count: 1}, {Meta: 0, Count: 1}}
	node := func(numMeta int, keys []graph.NodeID, off []int32, ent []Entry) *Index {
		return &Index{numMeta: numMeta, mx: csr[graph.NodeID]{keys: keys, off: off, ent: ent}}
	}
	pair := func(keys []PairKey, off []int32, ent []Entry) *Index {
		return &Index{numMeta: 1, mxy: csr[PairKey]{keys: keys, off: off, ent: ent}}
	}
	cases := []struct {
		name string
		ix   *Index
	}{
		{"meta out of range", node(1, []graph.NodeID{1}, []int32{0, 1}, []Entry{{Meta: 5, Count: 1}})},
		{"negative meta", node(2, []graph.NodeID{1}, []int32{0, 1}, []Entry{{Meta: -1, Count: 1}})},
		{"unsorted keys", node(1, []graph.NodeID{4, 2}, []int32{0, 1, 2}, two)},
		{"duplicate keys", node(1, []graph.NodeID{4, 4}, []int32{0, 1, 2}, two)},
		{"rows longer than the arena", node(1, []graph.NodeID{1}, []int32{0, 2}, one)},
		{"rows shorter than the arena", node(1, []graph.NodeID{1}, []int32{0, 1}, two)},
		{"entries without keys", node(1, nil, nil, one)},
		{"unsorted row", node(4, []graph.NodeID{1}, []int32{0, 2}, []Entry{{Meta: 3, Count: 1}, {Meta: 1, Count: 1}})},
		{"count of 0", node(1, []graph.NodeID{1}, []int32{0, 1}, []Entry{{Meta: 0, Count: 0}})},
		{"negative numMeta", node(-1, nil, nil, nil)},
		// What the derived adjacency indexes by: node ids and pair
		// endpoints, against a graph of 8 nodes.
		{"negative node key", node(1, []graph.NodeID{-1}, []int32{0, 1}, one)},
		{"node key beyond the graph", node(1, []graph.NodeID{8}, []int32{0, 1}, one)},
		{"id-sized node key", node(1, []graph.NodeID{math.MaxInt32}, []int32{0, 1}, one)},
		{"pair endpoint beyond the graph", pair([]PairKey{MakePairKey(1, 8)}, []int32{0, 1}, one)},
		{"id-sized pair endpoint", pair([]PairKey{MakePairKey(1, math.MaxInt32)}, []int32{0, 1}, one)},
		{"negative pair endpoint", pair([]PairKey{PairKey(1)<<32 | 0xFFFFFFFF}, []int32{0, 1}, one)},
		{"pair of one node", pair([]PairKey{MakePairKey(3, 3)}, []int32{0, 1}, one)},
		{"pair with the larger endpoint first", pair([]PairKey{PairKey(5)<<32 | 2}, []int32{0, 1}, one)},
		{"unsorted pair keys", pair([]PairKey{MakePairKey(2, 5), MakePairKey(1, 3)}, []int32{0, 1, 2}, two)},
		{"duplicate pair keys", pair([]PairKey{MakePairKey(1, 3), MakePairKey(1, 3)}, []int32{0, 1, 2}, two)},
	}
	for _, c := range cases {
		if _, err := Read(bytes.NewReader(writeBytes(t, c.ix)), 8); err == nil {
			t.Errorf("%s: Read accepted corrupt file", c.name)
		}
	}
	// A count no Entry can hold, which Write cannot produce: the stream of
	// the well-formed sibling below, written by hand with a wider count.
	for count, legal := range map[uint64]bool{1: true, math.MaxUint32: true, math.MaxUint32 + 1: false, math.MaxUint64: false} {
		var buf bytes.Buffer
		fw := flat.NewWriter(&buf, fileMagic)
		for _, v := range []uint64{1, 1, 1, 2, 1, 0, count, 0, 0} { // numMeta, node table, empty pair table
			fw.Uvarint(v)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(&buf, 8); (err == nil) != legal {
			t.Errorf("count %d: Read returned %v", count, err)
		}
	}
	good := writeBytes(t, node(1, []graph.NodeID{1}, []int32{0, 1}, one))
	if _, err := Read(bytes.NewReader(good), 8); err != nil {
		t.Fatalf("the cases' well-formed sibling is refused: %v", err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"bad version": func(b []byte) []byte { b[len(fileMagic)-1]--; return b },
		// The tail is: the count's one varint byte, the empty pair table's
		// two zero sizes, the 4-byte trailer. Flipping 0x10 turns the count
		// 1 into 17, still a one-byte varint of a legal count: only the
		// checksum can catch this.
		"flipped count bit":        func(b []byte) []byte { b[len(b)-7] ^= 0x10; return b },
		"truncated before trailer": func(b []byte) []byte { return b[:len(b)-4] },
		"bytes after the trailer":  func(b []byte) []byte { return append(b, 0) },
	} {
		if _, err := Read(bytes.NewReader(mutate(bytes.Clone(good))), 8); err == nil {
			t.Errorf("%s: Read accepted corrupt file", name)
		}
	}
}

// TestIndexReadBoundsAllocationByBytesReceived: a follower decodes index
// sections off the network, so a short stream claiming 2^31-1 keys and
// entries (the most the int32 offsets admit; 2^40 is refused outright)
// must cost what it sent, not what it claims — ~40 GB here.
func TestIndexReadBoundsAllocationByBytesReceived(t *testing.T) {
	for _, claim := range []uint64{math.MaxInt32, 1 << 40} {
		var buf bytes.Buffer
		fw := flat.NewWriter(&buf, fileMagic)
		fw.Uvarint(1) // numMeta
		fw.Uvarint(claim)
		fw.Uvarint(claim)
		for i := 0; i < 80; i++ {
			fw.Uvarint(1) // consecutive keys, then the stream just stops
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(buf.Bytes()), math.MaxInt32)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("claim %d: a %d-byte stream was accepted", claim, buf.Len())
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Fatalf("claim %d: a %d-byte stream cost %d bytes of allocation", claim, buf.Len(), got)
		}
	}
}

// scanEverything reads every adjacency row of ix and every vector behind
// it — whatever Read accepted must be safe to rank on — and holds each to
// the by-key read it stands in for: the inline and the by-table pair rows,
// the node rows, the query's own row and the denominators.
func scanEverything(t testing.TB, ix *Index, numNodes int) {
	t.Helper()
	ix.BuildAdjacency()
	w := make([]float64, ix.NumMeta())
	for i := range w {
		w[i] = 1 / float64(i+3)
	}
	dots := ix.NodeDots(w)
	if len(dots) != ix.NodeSpan() {
		t.Fatalf("%d denominators for a node span of %d", len(dots), ix.NodeSpan())
	}
	for v := graph.NodeID(-1); int(v) <= numNodes; v++ {
		c := ix.Candidates(v)
		if !sameRow(c.QueryVec(), ix.NodeVec(v)) {
			t.Fatalf("query row of %d is %v, by key %v", v, c.QueryVec(), ix.NodeVec(v))
		}
		if v >= 0 && int(v) < len(dots) && dots[v] != ix.NodeVec(v).Dot(w) {
			t.Fatalf("denominator of %d is %v, by key %v", v, dots[v], ix.NodeVec(v).Dot(w))
		}
		for i, u := range c.Nodes {
			if int(u) >= len(dots) || int(v) >= len(dots) {
				t.Fatalf("pair (%d,%d) lies beyond the node span %d", v, u, len(dots))
			}
			if !sameRow(c.PairVec(i), ix.PairVec(v, u)) {
				t.Fatalf("slot %d of node %d holds %v, the pair with %d by key %v", i, v, c.PairVec(i), u, ix.PairVec(v, u))
			}
			if !sameRow(c.NodeVec(i), ix.NodeVec(u)) {
				t.Fatalf("slot %d of node %d: m_%d is %v, by key %v", i, v, u, c.NodeVec(i), ix.NodeVec(u))
			}
		}
	}
}

// sameRow reports whether two rows hold the same raw entries.
func sameRow(a, b SparseVec) bool { return slices.Equal(a.ent, b.ent) }

// readsThrough holds every value ix hands out — At, Get and Dot, by key and
// through the adjacency — bit for bit to f of the count stored (the count
// itself for a nil f).
func readsThrough(t testing.TB, ix *Index, f func(float64) float64) {
	t.Helper()
	w := make([]float64, ix.NumMeta())
	for i := range w {
		w[i] = 1 / float64(i+3)
	}
	check := func(what string, v SparseVec) {
		t.Helper()
		var dot float64
		for i, e := range v.ent {
			want := float64(e.Count)
			if f != nil {
				want = f(want)
			}
			dot += want * w[e.Meta]
			m, got := v.At(i)
			if m != int(e.Meta) || math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(v.Get(m)) != math.Float64bits(want) {
				t.Fatalf("%s: coordinate %d of count %d reads (%d, %v), Get %v; want %v", what, e.Meta, e.Count, m, got, v.Get(m), want)
			}
		}
		if got := v.Dot(w); math.Float64bits(got) != math.Float64bits(dot) {
			t.Fatalf("%s: Dot = %v, want %v", what, got, dot)
		}
	}
	for _, keys := range [][]graph.NodeID{ix.mx.keys, ix.ovlMx.keys} {
		for _, x := range keys {
			check(fmt.Sprintf("m_%d", x), ix.NodeVec(x))
			c := ix.Candidates(x)
			check(fmt.Sprintf("m_%d as a query", x), c.QueryVec())
			for i, y := range c.Nodes {
				check(fmt.Sprintf("slot of m_%d%d", x, y), c.PairVec(i))
				check(fmt.Sprintf("m_%d as a candidate of %d", y, x), c.NodeVec(i))
			}
		}
	}
	for _, keys := range [][]PairKey{ix.mxy.keys, ix.ovlMxy.keys} {
		for _, k := range keys {
			check("m_"+k.String(), ix.PairVec(k.Nodes()))
		}
	}
}

// selfPatch builds a patch out of ix's own first rows with every count
// doubled plus one (never 0, even where the doubling wraps), plus (when the
// graph has room for one) a pair and a node row on the highest node id,
// which ix may or may not hold.
func selfPatch(ix *Index, numNodes int) *Patch {
	double := func(row []Entry) []Entry {
		out := slices.Clone(row)
		for i := range out {
			out[i].Count = out[i].Count<<1 | 1
		}
		return out
	}
	mx, mxy := map[graph.NodeID][]Entry{}, map[PairKey][]Entry{}
	for r, k := range ix.mx.keys[:min(3, len(ix.mx.keys))] {
		mx[k] = double(ix.mx.ent[ix.mx.off[r]:ix.mx.off[r+1]])
	}
	for r, k := range ix.mxy.keys[:min(3, len(ix.mxy.keys))] {
		mxy[k] = double(ix.mxy.ent[ix.mxy.off[r]:ix.mxy.off[r+1]])
	}
	if numNodes >= 2 && ix.NumMeta() > 0 {
		last := graph.NodeID(numNodes - 1)
		mx[last] = []Entry{{Meta: 0, Count: 3}}
		mxy[MakePairKey(0, last)] = []Entry{{Meta: 0, Count: 1}}
	}
	return handPatch(ix.NumMeta(), mx, mxy)
}

// FuzzIndexRead feeds arbitrary bytes through the decoder: it may refuse
// them, but an index it returns must build its adjacency and serve every
// row — patched and compacted too — without a panic and equal to the by-key
// read, inside allocations bounded by the stated graph size.
func FuzzIndexRead(f *testing.F) {
	_, ix := buildToyIndex(f)
	f.Add(writeBytes(f, ix), uint16(14))
	f.Add(writeBytes(f, ix), uint16(3))
	f.Add(writeBytes(f, NewBuilder(2).Build()), uint16(0))
	// Counts of every varint width an Entry can hold, up to 2^32-1.
	f.Add(writeBytes(f, &Index{
		numMeta: 2,
		mx:      csr[graph.NodeID]{keys: []graph.NodeID{1, 5}, off: []int32{0, 2, 3}, ent: []Entry{{0, 127}, {1, 128}, {1, math.MaxUint32}}},
		mxy:     csr[PairKey]{keys: []PairKey{MakePairKey(1, 5)}, off: []int32{0, 2}, ent: []Entry{{0, 16383}, {1, 16384}}},
	}), uint16(8))
	f.Add([]byte("garbage"), uint16(8))
	f.Fuzz(func(t *testing.T, data []byte, numNodes uint16) {
		// Decode, not Read: Read's checksum turns away nearly every
		// mutation, and the structural checks must hold without it.
		fr, err := flat.NewReader(bytes.NewReader(data), fileMagic)
		if err != nil {
			return
		}
		ix, err := Decode(fr, int(numNodes))
		if err != nil || ix.NumMeta() > 1<<16 { // scanEverything allocates a weight vector
			return
		}
		scanEverything(t, ix, int(numNodes))
		// The same through the overlay: rows carried by WithPatch, built
		// from nothing on a patched index, and after compaction.
		patch := selfPatch(ix, int(numNodes))
		carried := ix.WithPatch(patch)
		scanEverything(t, carried, int(numNodes))
		fr, _ = flat.NewReader(bytes.NewReader(data), fileMagic)
		lazy, _ := Decode(fr, int(numNodes))
		scanEverything(t, lazy.WithPatch(patch), int(numNodes))
		scanEverything(t, carried.Compact(), int(numNodes))
	})
}
