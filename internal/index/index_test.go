package index

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"strings"
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
	return g, SerialIndex(toyMetagraphs(), match.NewSymISO(g))
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

// TestTransform keeps its name from the read-time count transform the index
// no longer has: every value an index hands out is its stored count, bit
// for bit, whichever constructor made the index — WithPatch, a Write/Read
// round trip of the patched index, AddParts, Project and Restrict.
func TestTransform(t *testing.T) {
	g, ix := buildToyIndex(t)
	kate := g.NodeByName("Kate")
	jay := g.NodeByName("Jay")
	if got := ix.PairVec(kate, jay).Get(0); got != 1 {
		t.Fatalf("m_KateJay[0] = %v, want the count 1", got)
	}
	scanEverything(t, ix, g.NumNodes())
	readsCounts(t, ix)
	patched := mustPatch(t, ix, selfPatch(ix, g.NumNodes()))
	compacted, err := ReadSection(bytes.NewReader(writeBytes(t, patched)), g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	for label, carried := range map[string]*Index{
		"patched":    patched,
		"compacted":  compacted,
		"grown":      Empty(6).AddParts([]int{1}, []*Index{patched}),
		"projected":  patched.Project([]int{2, 0}),
		"restricted": patched.Restrict([]bool{true, false, true, true}),
	} {
		t.Run(label, func(t *testing.T) { readsCounts(t, carried) })
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
	ix := SerialIndex([]*metagraph.Metagraph{asym}, match.NewSymISO(g))
	if ix.NumPairs() != 0 {
		t.Fatalf("asymmetric metagraph produced %d pairs", ix.NumPairs())
	}
}

func TestMerge(t *testing.T) {
	g := buildToy(t)
	mgs := toyMetagraphs()
	matcher := match.NewSymISO(g)

	// The map-based counter's index of all of them.
	want := refBuild(mgs, []int{0, 1, 2, 3}, g)

	// Same thing via per-metagraph parts and Merge.
	parts, _ := MatchParts(mgs, func() match.Matcher { return matcher }, 1)
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

// TestAddPartsOutOfOrderSlots pins AddParts' run order: parts handed over
// at descending slots lay out each node's runs ascending by metagraph, the
// index Merge gives the same parts in slot order.
func TestAddPartsOutOfOrderSlots(t *testing.T) {
	g := buildToy(t)
	mgs := toyMetagraphs()
	parts, _ := MatchParts(mgs, func() match.Matcher { return match.NewSymISO(g) }, 1)
	want := Merge(parts...)

	slots := []int{3, 2, 1, 0}
	got := Empty(len(mgs)).AddParts(slots, []*Index{parts[3], parts[2], parts[1], parts[0]})

	if !bytes.Equal(writeBytes(t, got), writeBytes(t, want)) {
		t.Fatal("parts added at descending slots differ from their merge")
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
	if err := WriteSection(&buf, ix); err != nil {
		t.Fatalf("Write: %v", err)
	}
	raw := append([]byte(nil), buf.Bytes()...) // Read drains the buffer
	got, err := ReadSection(&buf, g.NumNodes())
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
	if err := WriteSection(&buf2, ix); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf2.Bytes()) {
		t.Fatal("serialization not deterministic")
	}
}

// wideIndex is an index over 261 metagraphs — as many as the Facebook
// dataset mines at MaxNodes 5, too many for any layout that assumes a row
// fits a 64-bit mask — whose run heads take one to three bytes: runs that
// start at the last metagraph, a node with a run of every metagraph, runs
// of only ones, and node and pair counts of every varint width up to
// 2^32-1. Its node counts are no one divisor's, so they are written.
func wideIndex() *Index {
	const numMeta = 261
	every := make([]Entry, numMeta)
	for i := range every {
		every[i] = Entry{Meta: int32(i), Count: 1}
	}
	pairs := map[PairKey][]Entry{
		MakePairKey(0, 3): {{260, 1}},
		MakePairKey(3, 7): every,
		MakePairKey(5, 7): {{63, 1}, {64, 128}},
	}
	rows := tableOf(pairs)
	widths := []uint32{1, 2, 127, 128, 70000, math.MaxUint32}
	mx := degreesOf(&rows)
	for i := range mx.ent {
		mx.ent[i].Count = widths[(i+int(mx.ent[i].Meta))%len(widths)]
	}
	return rowsIndex(numMeta, mx, &rows)
}

// TestIndexRoundTripAnyWidth: one run layout for any number of
// metagraphs. The wide index comes back with the same runs, headers and
// all, and writes the same bytes again.
func TestIndexRoundTripAnyWidth(t *testing.T) {
	ix := wideIndex()
	raw := writeBytes(t, ix)
	got, err := ReadSection(bytes.NewReader(raw), 8)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumMeta() != ix.NumMeta() || !sameRuns(&got.flat, &ix.flat) {
		t.Fatal("round trip changed the runs")
	}
	if !bytes.Equal(writeBytes(t, got), raw) {
		t.Fatal("write after read drifted")
	}
	scanEverything(t, got, 8)
}

var (
	sinkVec   SparseVec
	sinkFloat float64
)

// TestZeroAllocReads pins the online-phase contract: reading node vectors
// out of the frozen index, dotting them against a weight vector, the by-key
// pair read Proximity makes (PairDot) and a pooled term-at-a-time scan must
// not allocate (the scan only without the race detector, which empties
// pools on purpose). PairVec gathers a row and may.
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
		{"PairDot", func() { sinkFloat = ix.PairDot(kate, jay, w) }},
		{"Accumulate", func() { ix.Accumulate(kate, w).Release() }},
		{"SparseVec.Dot", func() { sinkFloat = v.Dot(w) }},
		{"SparseVec.Get", func() { sinkFloat = v.Get(2) }},
	}
	for _, c := range checks {
		if c.name == "Accumulate" && raceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(200, c.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f allocs/op, want 0", c.name, allocs)
		}
	}
}

func TestIndexReadErrors(t *testing.T) {
	if _, err := ReadSection(bytes.NewBufferString("garbage"), 8); err == nil {
		t.Fatal("Read accepted garbage")
	}
}

// TestIndexReadRejectsCorruptTables feeds structurally plausible but
// invariant-violating files through Read; each must fail loudly instead of
// panicking later at query time. It keeps its name from the node table the
// section no longer has: what stands in for it is the counts section, each
// metagraph's divisor and the counts written where there is none.
// rowBytes validates nothing — gaps and counts of broken rows simply wrap
// — so it turns each hand-built table into exactly the bytes a corrupt
// file would hold; the counts section is also written field by field, each
// field breaking one rule. TestIndexReadRejectsCorruptRuns covers the runs
// section's own rules.
func TestIndexReadRejectsCorruptTables(t *testing.T) {
	one := []Entry{{Meta: 0, Count: 1}}
	two := []Entry{{Meta: 0, Count: 1}, {Meta: 0, Count: 1}}
	pair := func(keys []PairKey, off []int32, ent []Entry) []byte {
		return rowBytes(t, 1, csr[graph.NodeID]{}, csr[PairKey]{keys: keys, off: off, ent: ent})
	}
	pairOne := csr[PairKey]{keys: []PairKey{MakePairKey(1, 3)}, off: []int32{0, 1}, ent: one}
	counts := func(keys []graph.NodeID, ent ...Entry) []byte {
		off := []int32{0}
		for i := range keys {
			off = append(off, int32(i+1))
		}
		return rowBytes(t, 1, csr[graph.NodeID]{keys: keys, off: off, ent: ent}, pairOne)
	}
	cases := []struct {
		name string
		raw  []byte
	}{
		{"negative numMeta", rowBytes(t, -1, csr[graph.NodeID]{}, csr[PairKey]{})},
		// What the runs index by: pair endpoints, against a graph of 8
		// nodes, the pair rows written as the runs above their smaller node.
		{"pair endpoint beyond the graph", pair([]PairKey{MakePairKey(1, 8)}, []int32{0, 1}, one)},
		{"id-sized pair endpoint", pair([]PairKey{MakePairKey(1, math.MaxInt32)}, []int32{0, 1}, one)},
		{"negative pair endpoint", pair([]PairKey{PairKey(1)<<32 | 0xFFFFFFFF}, []int32{0, 1}, one)},
		{"pair of one node", pair([]PairKey{MakePairKey(3, 3)}, []int32{0, 1}, one)},
		{"pair with the larger endpoint first", pair([]PairKey{PairKey(5)<<32 | 2}, []int32{0, 1}, one)},
		{"unsorted pair keys", pair([]PairKey{MakePairKey(2, 5), MakePairKey(1, 3)}, []int32{0, 1, 2}, two)},
		{"duplicate pair keys", pair([]PairKey{MakePairKey(1, 3), MakePairKey(1, 3)}, []int32{0, 1, 2}, two)},
		// The counts written for the run of pair (1, 3).
		{"a written count for a node with no run", counts([]graph.NodeID{1, 3, 5}, Entry{0, 1}, Entry{0, 1}, Entry{0, 1})},
		{"a run with no written count", counts([]graph.NodeID{1}, Entry{0, 1})},
		{"a written count of 0", counts([]graph.NodeID{1, 3}, Entry{0, 0}, Entry{0, 1})},
		{"unsorted written counts", counts([]graph.NodeID{3, 1}, Entry{0, 1}, Entry{0, 1})},
		{"a written count beyond the graph", counts([]graph.NodeID{1, 3, 8}, Entry{0, 1}, Entry{0, 1}, Entry{0, 1})},
	}
	for _, c := range cases {
		if _, err := ReadSection(bytes.NewReader(c.raw), 8); err == nil {
			t.Errorf("%s: Read accepted corrupt file", c.name)
		}
	}

	// Node 0's run of metagraph 2 in a 5-metagraph index (b = bits.Len(5)
	// = 3, so its head is 1<<3 | 2), holding the residuals 1, 2, 3 and 4 —
	// of ones, or of the counts given — then the counts section: the one
	// metagraph's divisor, and its written counts when that is 0, each a
	// node gap from the one before (from -1 for the first) and a count.
	run := func(cnts ...uint64) []uint64 {
		if len(cnts) == 0 {
			return []uint64{5, 1, 4, 1, 1<<3 | 2, 0, 4<<1 | 1, 1, 1, 1, 1}
		}
		return append([]uint64{5, 1, 4, 1, 1<<3 | 2, 0, 4 << 1, 1, 1, 1, 1}, cnts...)
	}
	with := func(body []uint64, tail ...uint64) []uint64 { return append(slices.Clone(body), tail...) }
	const (
		badDiv   = "divisor of metagraph 2 above 2^32-1"
		divides  = "does not divide into a count"
		badCnt   = "count of 0 or above 2^32-1"
		outnum   = "outnumber the graph's 8 nodes"
		asc      = "written counts' nodes of metagraph 2 not strictly ascending"
		noRun    = "which has no run of metagraph 2"
		noCount  = "has a run of metagraph 2 and no count"
		nodeRows = "node rows"
	)
	for _, c := range []struct {
		name, want string // want is "" for a legal section
		vals       []uint64
		nodes      map[graph.NodeID][]Entry // what a legal section holds
	}{
		{"a divisor of 1", "", with(run(), 1), map[graph.NodeID][]Entry{0: {{2, 4}}, 1: {{2, 1}}, 2: {{2, 1}}, 3: {{2, 1}}, 4: {{2, 1}}}},
		{"a divisor of 2", "", with(run(2, 4, 6, 8), 2), map[graph.NodeID][]Entry{0: {{2, 10}}, 1: {{2, 1}}, 2: {{2, 2}}, 3: {{2, 3}}, 4: {{2, 4}}}},
		{"written counts", "", with(run(), 0, 5, 1, 9, 1, 1, 1, 2, 1, 3, 1, math.MaxUint32),
			map[graph.NodeID][]Entry{0: {{2, 9}}, 1: {{2, 1}}, 2: {{2, 2}}, 3: {{2, 3}}, 4: {{2, math.MaxUint32}}}},
		{"a divisor above 2^32-1", badDiv, with(run(), math.MaxUint32+1), nil},
		{"a sum its divisor does not divide", divides, with(run(), 2), nil},
		{"a sum past 2^32-1 over a divisor of 1", divides, with(run(math.MaxUint32, 1, 1, 1), 1), nil},
		{"more written counts than nodes", outnum, with(run(), 0, 9), nil},
		{"a written node gap of 0", asc, with(run(), 0, 5, 1, 9, 0), nil},
		{"a written node at the graph's size", asc, with(run(), 0, 5, 9), nil},
		{"a written node gap of 2^64-1", asc, with(run(), 0, 5, math.MaxUint64), nil},
		{"a written count of 0", badCnt, with(run(), 0, 5, 1, 0), nil},
		{"a written count of 2^32", badCnt, with(run(), 0, 5, 1, math.MaxUint32+1), nil},
		{"a written count for a node with no run", noRun, with(run(), 0, 6, 1, 9, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1), nil},
		{"a run with no written count", noCount, with(run(), 0, 4, 1, 9, 1, 1, 1, 1, 1, 1), nil},
	} {
		ix, err := ReadSection(bytes.NewReader(fieldBytes(t, c.vals...)), 8)
		if c.want != "" {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: Read returned %v, want an error naming %q", c.name, err, c.want)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: Read refused a legal section: %v", c.name, err)
			continue
		}
		if got, want := ix.nodeTable(), tableOf(c.nodes); !slices.Equal(got.keys, want.keys) || !slices.Equal(got.ent, want.ent) {
			t.Errorf("%s: %s %v %v; want %v %v", c.name, nodeRows, got.keys, got.ent, want.keys, want.ent)
		}
	}

	// A flipped bit the section still decodes — a count turned into another
	// legal count, say — is caught by the checksum alone.
	good := fieldBytes(t, with(run(), 0, 5, 1, 9, 1, 1, 1, 2, 1, 3, 1, 4)...)
	ix, err := ReadSection(bytes.NewReader(good), 8)
	if err != nil {
		t.Fatalf("the cases' well-formed sibling is refused: %v", err)
	}
	decodes := func(raw []byte) bool {
		fr, err := flat.NewReader(bytes.NewReader(raw), sectionMagic)
		if err != nil {
			return false
		}
		got, err := DecodeRuns(fr, 8)
		return err == nil && ContentDigest(got) != ContentDigest(ix)
	}
	flipped := flipBit(t, good, decodes)
	for name, mutate := range map[string]func([]byte) []byte{
		"bad version":              func(b []byte) []byte { b[len(sectionMagic)-1]--; return b },
		"flipped count bit":        func([]byte) []byte { return flipped },
		"truncated before trailer": func(b []byte) []byte { return b[:len(b)-4] },
		"bytes after the trailer":  func(b []byte) []byte { return append(b, 0) },
	} {
		if _, err := ReadSection(bytes.NewReader(mutate(bytes.Clone(good))), 8); err == nil {
			t.Errorf("%s: Read accepted corrupt file", name)
		}
	}
}

// TestIndexReadRejectsCorruptRuns writes the runs section by hand, in a
// 5-metagraph index (b = bits.Len(5) = 3, so a run head is runs<<3 |
// first) for a graph of 8 nodes: each legal run shape reads back, and each
// broken invariant is refused by name. A node opens with its gap from the
// node before; a run is its reference distance, its copy blocks when that
// is not 0, the residuals' head n<<1 | ones, their gaps from the node, and
// their counts unless ones. A legal section ends with a divisor of 1 per
// metagraph its runs hold — each node's count its run's sum — but for the
// one whose counts it writes.
func TestIndexReadRejectsCorruptRuns(t *testing.T) {
	head := func(runs, first uint64) uint64 { return runs<<3 | first }
	res := func(n, ones uint64) uint64 { return n<<1 | ones }
	// Node 0's run of metagraph 2 holds 1, 2, 3 and 4, all ones: the run
	// every copy below reads from.
	base := []uint64{1, head(1, 2), 0, res(4, 1), 1, 1, 1, 1}
	with := func(more ...uint64) []uint64 { return append(slices.Clone(base), more...) }
	const (
		byMeta   = "not strictly ascending by metagraph"
		badCnt   = "count of 0 or above 2^32-1"
		nodes    = "nodes not strictly ascending"
		runCount = "run count"
		refBelow = "lies below node 0"
		noRun    = "has no run of metagraph"
		blocks   = "copy blocks"
		resAsc   = "residual partners"
		copied   = "is copied too"
		empty    = "holds no postings"
		past     = "run past the count claimed"
		short    = "fall short of the count claimed"
	)
	// The counts the legal sections write, where a divisor of 1 does not
	// give them: node 1's run sums to 2^32+6.
	written := map[string]struct {
		counts []uint64
		nodes  map[graph.NodeID][]Entry
	}{
		"residuals with counts": {[]uint64{0, 3, 2, 5, 3, 1, 2, 1}, map[graph.NodeID][]Entry{1: {{4, 5}}, 4: {{4, 1}}, 6: {{4, 1}}}},
	}
	for _, c := range []struct {
		name, want   string // want is "" for a legal section
		nRuns, nPost uint64
		body         []uint64
		rows         map[PairKey][]Entry // what a legal section holds
	}{
		{"residuals of ones", "", 1, 4, base, map[PairKey][]Entry{
			MakePairKey(0, 1): {{2, 1}}, MakePairKey(0, 2): {{2, 1}}, MakePairKey(0, 3): {{2, 1}}, MakePairKey(0, 4): {{2, 1}}}},
		{"residuals with counts", "", 1, 2, []uint64{2, head(1, 4), 0, res(2, 0), 3, 2, 7, math.MaxUint32}, map[PairKey][]Entry{
			MakePairKey(1, 4): {{4, 7}}, MakePairKey(1, 6): {{4, math.MaxUint32}}}},
		{"two runs of one node", "", 2, 2, []uint64{1, head(2, 0), 4, 0, res(1, 1), 1, 0, res(1, 1), 2}, map[PairKey][]Entry{
			MakePairKey(0, 1): {{0, 1}}, MakePairKey(0, 2): {{4, 1}}}},
		{"a whole copy", "", 2, 7, with(1, head(1, 2), 1, 0, res(0, 1)), map[PairKey][]Entry{
			MakePairKey(0, 1): {{2, 1}}, MakePairKey(0, 2): {{2, 1}}, MakePairKey(0, 3): {{2, 1}}, MakePairKey(0, 4): {{2, 1}},
			MakePairKey(1, 2): {{2, 1}}, MakePairKey(1, 3): {{2, 1}}, MakePairKey(1, 4): {{2, 1}}}},
		// Node 1 takes 2, skips 3, takes 4 (two blocks, the rest taken),
		// and adds 6.
		{"copy blocks and a residual", "", 2, 7, with(1, head(1, 2), 1, 2, 1, 1, res(1, 1), 5), map[PairKey][]Entry{
			MakePairKey(0, 1): {{2, 1}}, MakePairKey(0, 2): {{2, 1}}, MakePairKey(0, 3): {{2, 1}}, MakePairKey(0, 4): {{2, 1}},
			MakePairKey(1, 2): {{2, 1}}, MakePairKey(1, 4): {{2, 1}}, MakePairKey(1, 6): {{2, 1}}}},
		// Node 2 copies node 0's 3 and skips the rest, from two back.
		{"a reference two back, the rest skipped", "", 2, 5, with(2, head(1, 2), 2, 1, 1, res(0, 1)), map[PairKey][]Entry{
			MakePairKey(0, 1): {{2, 1}}, MakePairKey(0, 2): {{2, 1}}, MakePairKey(0, 3): {{2, 1}}, MakePairKey(0, 4): {{2, 1}},
			MakePairKey(2, 3): {{2, 1}}}},
		{"a copy keeps its count", "", 2, 3, []uint64{1, head(1, 1), 0, res(2, 0), 1, 1, 5, 9, 1, head(1, 1), 1, 0, res(0, 1)}, map[PairKey][]Entry{
			MakePairKey(0, 1): {{1, 5}}, MakePairKey(0, 2): {{1, 9}}, MakePairKey(1, 2): {{1, 9}}}},

		{"a first node gap of 0", nodes, 1, 1, []uint64{0, head(1, 0), 0, res(1, 1), 1}, nil},
		{"a node gap of 0", nodes, 2, 5, with(0, head(1, 2), 0, res(1, 1), 2), nil},
		{"a node with nothing above it", nodes, 1, 1, []uint64{8, head(1, 0), 0, res(1, 1), 1}, nil},
		{"a node gap of 2^64-1", nodes, 1, 1, []uint64{math.MaxUint64, head(1, 0), 0, res(1, 1), 1}, nil},
		{"no runs in a head", runCount, 1, 1, []uint64{1, head(0, 0)}, nil},
		{"more runs than the metagraphs", runCount, 6, 6, []uint64{1, head(6, 0)}, nil},
		{"more runs than claimed", runCount, 1, 2, []uint64{1, head(2, 0), 1}, nil},
		{"a first metagraph of numMeta", byMeta, 1, 1, []uint64{1, head(1, 5)}, nil},
		{"a metagraph gap of 0", byMeta, 2, 2, []uint64{1, head(2, 1), 0}, nil},
		{"a metagraph gap past numMeta", byMeta, 2, 2, []uint64{1, head(2, 3), 2}, nil},
		{"a reference past node 0", refBelow, 1, 1, []uint64{1, head(1, 0), 1}, nil},
		{"a reference to a node without runs", noRun, 2, 5, with(2, head(1, 2), 1, 0, res(0, 1)), nil},
		{"a reference to a node without a run of m", noRun, 2, 5, with(1, head(1, 3), 1, 0, res(0, 1)), nil},
		{"more copy blocks than postings", blocks, 2, 7, with(1, head(1, 2), 1, 5), nil},
		{"copy blocks past the reference's postings above the node", blocks, 2, 7, with(1, head(1, 2), 1, 1, 4), nil},
		{"an empty copy block after the first", blocks, 2, 7, with(1, head(1, 2), 1, 2, 1, 0), nil},
		{"a residual equal to a copied partner", copied, 2, 8, with(1, head(1, 2), 1, 0, res(1, 1), 2), nil},
		{"a residual gap of 0", resAsc, 1, 2, []uint64{1, head(1, 0), 0, res(2, 1), 1, 0}, nil},
		{"a residual at numNodes", resAsc, 1, 1, []uint64{1, head(1, 0), 0, res(1, 1), 8}, nil},
		{"a residual gap of 2^64-1", resAsc, 1, 1, []uint64{1, head(1, 0), 0, res(1, 1), math.MaxUint64}, nil},
		{"a residual count of 0", badCnt, 1, 1, []uint64{1, head(1, 0), 0, res(1, 0), 1, 0}, nil},
		{"a residual count of 2^32", badCnt, 1, 1, []uint64{1, head(1, 0), 0, res(1, 0), 1, math.MaxUint32 + 1}, nil},
		{"an empty run", empty, 1, 1, []uint64{1, head(1, 0), 0, res(0, 1)}, nil},
		{"a copy of nothing", empty, 2, 5, with(1, head(1, 2), 1, 1, 0, res(0, 1)), nil},
		{"more residuals than claimed", past, 1, 1, []uint64{1, head(1, 0), 0, res(2, 1), 1, 1}, nil},
		{"more copies than claimed", past, 2, 5, with(1, head(1, 2), 1, 0, res(0, 1)), nil},
		{"fewer postings than claimed", short, 1, 5, base, nil},
		{"postings without runs", "no runs hold postings", 0, 1, nil, nil},
		{"2^31 runs", "overflow the runs' posting positions", 1 << 31, 1, nil, nil},
		{"2^30 postings", "overflow the runs' posting positions", 1, 1 << 30, nil, nil},
	} {
		rows, nodes, counts := tableOf(c.rows), tableOf(written[c.name].nodes), written[c.name].counts
		if counts == nil {
			nodes = sumsOf(&rows)
			for range slices.Compact(slices.Sorted(slices.Values(nodes.metas()))) {
				counts = append(counts, 1)
			}
		}
		ix, err := ReadSection(bytes.NewReader(fieldBytes(t, append(append([]uint64{5, c.nRuns, c.nPost}, c.body...), counts...)...)), 8)
		if c.want != "" {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: Read returned %v, want an error naming %q", c.name, err, c.want)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: Read refused a legal section: %v", c.name, err)
			continue
		}
		holdsRows(t, c.name, ix, rows)
		if want := refRuns(&nodes, &rows); !sameRuns(&ix.flat, &want) {
			t.Errorf("%s: the runs %+v are not the ones the rows lay out, %+v", c.name, ix.flat, want)
		}
	}
}

// TestIndexReadBoundsAllocationByBytesReceived: a follower decodes index
// sections off the network, so a short stream claiming 2^31-1 runs and
// (2^31-1)/2 postings (the most the runs' posting positions admit), or
// 2^40 of both, must cost what it sent, not what it claims — ~40 GB here.
// The same holds for a metagraph's written counts, claiming as many as the
// graph has nodes, or 2^40 (refused outright). The stream's rows are well
// formed — consecutive nodes, each one run of metagraph 0 holding the node
// after it; or one run and then consecutive nodes' counts of 1 — until it
// just stops: after 80 rows, inside the first flat.Grow step of each
// arena, and after 30 000, past its second.
func TestIndexReadBoundsAllocationByBytesReceived(t *testing.T) {
	sections := map[string]func(claim uint64, rows int) []uint64{
		"written counts": func(claim uint64, rows int) []uint64 {
			vals := []uint64{
				1, 1, // one run of one posting
				1,        // node 0
				1 << 1,   // one run, of metagraph 0
				0,        // no reference
				1<<1 | 1, // one residual, a count of 1
				1,        // node 1
				0,        // metagraph 0's counts are written
				claim,
			}
			for i := 0; i < rows; i++ {
				vals = append(vals, 1, 1) // the next node, a count of 1
			}
			return vals
		},
		"runs": func(claim uint64, rows int) []uint64 {
			vals := []uint64{claim, min(claim, math.MaxInt32/2)}
			for i := 0; i < rows; i++ {
				vals = append(vals,
					1,      // the next node
					1<<1,   // one run, of metagraph 0
					0,      // no reference
					1<<1|1, // one residual, a count of 1
					1,      // the node after it
				)
			}
			return vals
		},
	}
	for name, section := range sections {
		for _, claim := range []uint64{math.MaxInt32, 1 << 40} {
			for _, rows := range []int{80, 30_000} {
				raw := fieldBytes(t, append([]uint64{1}, section(claim, rows)...)...) // numMeta 1
				cut := raw[:len(raw)-4]                                               // the checksum too
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, err := ReadSection(bytes.NewReader(cut), math.MaxInt32)
				runtime.ReadMemStats(&after)
				if err == nil {
					t.Fatalf("%s, claim %d: a %d-byte stream was accepted", name, claim, len(cut))
				}
				if claim == math.MaxInt32 && !strings.Contains(err.Error(), "unexpected EOF") {
					t.Fatalf("%s, claim %d: %d rows were refused before the cut: %v", name, claim, rows, err)
				}
				if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
					t.Fatalf("%s, claim %d: a %d-byte stream cost %d bytes of allocation", name, claim, len(cut), got)
				}
			}
		}
	}
}

// TestIndexReadBoundsAllocationByMetagraphCount: the metagraph count is a
// number the stream states, not one it pays for. A section claiming 2^31-1
// metagraphs with a single run of one posting — of the first metagraph or
// the last — is read at the cost of that run, well inside the bar above.
func TestIndexReadBoundsAllocationByMetagraphCount(t *testing.T) {
	const numMeta = math.MaxInt32
	b := uint(bits.Len(numMeta))
	for _, meta := range []uint64{0, numMeta - 1} {
		raw := fieldBytes(t,
			numMeta,
			1, 1, // one run of one posting
			1, // node 0
			1<<b|meta,
			0,      // no reference
			1<<1|1, // one residual, a count of 1
			1,      // node 1
			1,      // a divisor of 1: each node's count is its run's sum
		)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix, err := ReadSection(bytes.NewReader(raw), 2)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("metagraph %d: %v", meta, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Fatalf("metagraph %d: a %d-byte stream cost %d bytes of allocation", meta, len(raw), got)
		}
		if row := ix.PairVec(1, 0); row.Len() != 1 || row.Get(int(meta)) != 1 || ix.NodeVec(1).Get(int(meta)) != 1 {
			t.Fatalf("metagraph %d: the pair reads %v, m_1 %v", meta, row.ent, ix.NodeVec(1).ent)
		}
	}
}

// TestIndexReadCopyChainCostsWhatItSent: a copy is the one way a few
// bytes of a section make many postings. In a chain over the nodes below
// n/2 of a graph of n, each run copying everything its predecessor holds
// above it and adding the node n-1-q below them all, node q holds q+1
// postings in ~5 bytes: n²/8 postings out of 5n/2 bytes, 2·10⁶ out of
// ~10 KB at n = 4 000 (and 1.25·10⁹ at n = 100 000). Whether the stream
// is refused (past maxPostingsPerByte) or accepted (a chain short enough
// to stay within it), it allocates at most
// maxPostingsPerByte·postingAlloc bytes per byte sent.
func TestIndexReadCopyChainCostsWhatItSent(t *testing.T) {
	for _, n := range []int{4000, 60} {
		vals := []uint64{
			1, // numMeta
			uint64(n / 2),
			min(uint64(n/2*(n/2+1)/2), math.MaxInt32/2), // all it holds, or the most a claim may
		}
		for q := 0; q < n/2; q++ {
			vals = append(vals,
				1,    // the next node
				1<<1, // one run, of metagraph 0
			)
			if q == 0 {
				vals = append(vals, 0) // no reference
			} else {
				vals = append(vals,
					1, // the node before, whatever it holds
					0, // taken whole
				)
			}
			vals = append(vals, 1<<1|1, uint64(n-1-2*q)) // n-1-q, below every copy
		}
		vals = append(vals, 1) // a divisor of 1: each node's count is its partners
		raw := fieldBytes(t, vals...)
		budget := uint64(maxPostingsPerByte * postingAlloc * len(raw))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix, err := ReadSection(bytes.NewReader(raw), n)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		switch {
		case got > budget:
			t.Fatalf("a chain of %d nodes: a %d-byte stream cost %d bytes of allocation, over %d (%v)", n, len(raw), got, budget, err)
		case n > 1000 && (err == nil || !strings.Contains(err.Error(), "postings per byte")):
			t.Fatalf("a chain of %d nodes: Read returned %v", n, err)
		case n <= 1000 && err != nil:
			t.Fatalf("a chain of %d nodes is refused: %v", n, err)
		case n <= 1000 && len(ix.Partners(graph.NodeID(n/2-1))) != n/2:
			t.Fatalf("a chain of %d nodes: the last node's partners are %v", n, ix.Partners(graph.NodeID(n/2-1)))
		}
	}
}

// TestWriteKeepsCopiesWithinTheCap: a clique is the shape copies write
// most compactly — each node's partners above it are its predecessor's but
// itself — and so the one maxPostingsPerByte binds: 1 000 nodes hold
// 499 500 pairs, which whole copies would write in ~6 bytes a node. Write
// writes residuals where a copy would pass the cap, so what it wrote reads
// back, the same rows laid out the same way, inside the cap's allocation
// bar.
func TestWriteKeepsCopiesWithinTheCap(t *testing.T) {
	const n = 1000
	ix := cliqueIndex(n)
	raw := writeBytes(t, ix)
	if pairs := n * (n - 1) / 2; len(raw) < pairs/maxPostingsPerByte {
		t.Fatalf("%d pairs written in %d bytes: past the cap", pairs, len(raw))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := ReadSection(bytes.NewReader(raw), n)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Read refuses what Write wrote: %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(maxPostingsPerByte*postingAlloc*len(raw)) {
		t.Fatalf("a %d-byte stream cost %d bytes of allocation", len(raw), alloc)
	}
	if !sameRuns(&got.flat, &ix.flat) {
		t.Fatal("the clique reads back laid out differently")
	}
}

// scanEverything reads every run of ix and every vector behind it —
// whatever Read accepted must be safe to rank on — and holds each to the
// by-key read it stands in for: every posting to the same coordinate as
// its partner's runs hold it, the postings all together to the pair rows
// walked out of them, the query's own row, the denominators, and a scan
// under weights with zeros to each weighted pair row's Dot and PairDot,
// bit for bit.
func scanEverything(t testing.TB, ix *Index, numNodes int) {
	t.Helper()
	w := make([]float64, ix.NumMeta())
	for i := range w {
		if i%3 != 1 { // every third metagraph weighs nothing
			w[i] = 1 / float64(i+3)
		}
	}
	dots := ix.NodeDots(w)
	if len(dots) != ix.NodeSpan() {
		t.Fatalf("%d denominators for a node span of %d", len(dots), ix.NodeSpan())
	}
	postings := 0
	for v := graph.NodeID(-1); int(v) <= numNodes; v++ {
		if v >= 0 && int(v) < len(dots) && dots[v] != ix.NodeVec(v).Dot(w) {
			t.Fatalf("denominator of %d is %v, by key %v", v, dots[v], ix.NodeVec(v).Dot(w))
		}
		rs := &ix.flat
		lo, hi := rs.runs(v)
		for r := lo; r < hi; r++ {
			m, ps := rs.head[r].Meta, rs.postings(r)
			if len(ps) == 0 || rs.head[r].Count == 0 || (r > lo && m <= rs.head[r-1].Meta) {
				t.Fatalf("run %d of node %d (%v, %d postings) is empty, has no count or is out of order", r-lo, v, rs.head[r], len(ps))
			}
			for i, p := range ps {
				if int(p.node) >= len(dots) || int(v) >= len(dots) {
					t.Fatalf("pair (%d,%d) lies beyond the node span %d", v, p.node, len(dots))
				}
				if i > 0 && p.node <= ps[i-1].node {
					t.Fatalf("run of metagraph %d of node %d does not ascend: %v", m, v, ps)
				}
				row := ix.PairVec(p.node, v).ent
				j, ok := slices.BinarySearchFunc(row, m, func(e Entry, m int32) int { return cmp.Compare(e.Meta, m) })
				if !ok || row[j].Count != p.count {
					t.Fatalf("node %d holds %d in metagraph %d with count %d; the runs of %d, %v", v, p.node, m, p.count, p.node, row)
				}
			}
			postings += len(ps)
		}

		acc := ix.Accumulate(v, w)
		weighed := 0
		for _, u := range ix.Partners(v) {
			row := ix.PairVec(v, u)
			if row.Len() == 0 {
				t.Fatalf("partner %d of %d has no pair row", u, v)
			}
			if !slices.ContainsFunc(row.ent, func(e Entry) bool { return w[e.Meta] != 0 }) {
				continue
			}
			weighed++
			if acc.slot[u].gen != acc.gen || math.Float64bits(acc.PairDot(u)) != math.Float64bits(row.Dot(w)) ||
				math.Float64bits(ix.PairDot(u, v, w)) != math.Float64bits(row.Dot(w)) {
				t.Fatalf("scan of %d: partner %d sums to %v (reached %v), by key %v, %v", v, u, acc.PairDot(u), acc.slot[u].gen == acc.gen, row.Dot(w), ix.PairDot(u, v, w))
			}
		}
		if len(acc.Touched) != weighed {
			t.Fatalf("scan of %d reached %v, %d partners share a weighted metagraph with it", v, acc.Touched, weighed)
		}
		acc.Release()
	}
	if all := 2 * len(ix.pairTable().ent); postings != all {
		t.Fatalf("the runs hold %d postings; the pair rows, %d", postings, all)
	}
}

// sameRow reports whether two rows hold the same raw entries.
func sameRow(a, b SparseVec) bool { return slices.Equal(a.ent, b.ent) }

// readsCounts holds every value ix hands out — At, Get and Dot, by key and
// through a scan — bit for bit to the count stored.
func readsCounts(t testing.TB, ix *Index) {
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
	for _, keys := range [][]graph.NodeID{ix.nodeTable().keys} {
		for _, x := range keys {
			check(fmt.Sprintf("m_%d", x), ix.NodeVec(x))
			acc := ix.Accumulate(x, w)
			for _, y := range ix.Partners(x) {
				var want float64
				for _, e := range ix.PairVec(x, y).ent {
					want += float64(e.Count) * w[e.Meta]
				}
				if got := acc.PairDot(y); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("scan of m_%d: m_%d%d · w = %v, want %v", x, x, y, got, want)
				}
			}
			acc.Release()
		}
	}
	pairs := ix.pairTable()
	for _, k := range pairs.keys {
		x, y := k.Nodes()
		check("m_"+k.String(), ix.PairVec(x, y))
		check("m_"+k.String()+" from its larger node", ix.PairVec(y, x))
	}
}

// selfPatch builds gains out of ix's own first pair rows with every count
// doubled plus one (never 0, even where the doubling wraps), plus (when the
// graph has room for one) a pair gain on the highest node id, which ix may
// or may not hold, and on each endpoint of a gained pair the node gain of
// the same doubling of its count in ix (3 where ix holds none): gains as a
// re-match hands them over, a node count with every pair run.
func selfPatch(ix *Index, numNodes int) *Patch {
	double := func(row []Entry) []Entry {
		out := slices.Clone(row)
		for i := range out {
			out[i].Count = out[i].Count<<1 | 1
		}
		return out
	}
	mxy := map[PairKey][]Entry{}
	pairs := ix.pairTable()
	for r, k := range pairs.keys[:min(3, len(pairs.keys))] {
		mxy[k] = double(pairs.ent[pairs.off[r]:pairs.off[r+1]])
	}
	if numNodes >= 2 && ix.NumMeta() > 0 {
		last := graph.NodeID(numNodes - 1)
		mxy[MakePairKey(0, last)] = []Entry{{Meta: 0, Count: 1}}
	}
	return handPatch(ix.NumMeta(), endpointGains(ix, mxy, func(held uint32) (uint32, bool) {
		if held == 0 {
			return 3, true
		}
		return held<<1 | 1, true
	}), mxy)
}

// endpointGains is the node gains of pair gains mxy on ix: for each
// endpoint of a gained pair and each metagraph it gains in, gain(m_x[m])
// as ix holds it, where that reports one.
func endpointGains(ix *Index, mxy map[PairKey][]Entry, gain func(held uint32) (uint32, bool)) map[graph.NodeID][]Entry {
	mx := map[graph.NodeID][]Entry{}
	for k, row := range mxy {
		x, y := k.Nodes()
		for _, v := range []graph.NodeID{x, y} {
			for _, e := range row {
				held := uint32(ix.NodeVec(v).Get(int(e.Meta)))
				if c, ok := gain(held); ok && !slices.ContainsFunc(mx[v], func(h Entry) bool { return h.Meta == e.Meta }) {
					mx[v] = append(mx[v], Entry{e.Meta, c})
				}
			}
		}
	}
	return mx
}

// unitPatch gains 1 on each pair coordinate selfPatch gains on whose count
// ix holds below 2^32−1, as do both endpoints' counts there, and 1 on each
// such endpoint count: its sums always fit, so where selfPatch's overflow,
// it still takes the patched index through the checks.
func unitPatch(ix *Index, numNodes int) *Patch {
	self := rowsOf(&selfPatch(ix, numNodes).up)
	mxy := map[PairKey][]Entry{}
	self.each(func(k PairKey, row []Entry) {
		x, y := k.Nodes()
		for _, e := range row {
			if m := int(e.Meta); ix.PairVec(x, y).Get(m) < math.MaxUint32 && ix.NodeVec(x).Get(m) < math.MaxUint32 && ix.NodeVec(y).Get(m) < math.MaxUint32 {
				mxy[k] = append(mxy[k], Entry{e.Meta, 1})
			}
		}
	})
	return handPatch(ix.NumMeta(), endpointGains(ix, mxy, func(uint32) (uint32, bool) { return 1, true }), mxy)
}

// FuzzIndexRead feeds arbitrary bytes through the decoder: it may refuse
// them, but an index it returns must serve every row without a panic —
// patched too — inside allocations bounded by the stated graph size. What
// it serves is held to what the stream declares: the pair rows
// declaredRuns and the node rows declaredCounts read off the same bytes —
// a written count, or a run's sum over its metagraph's divisor — laid out
// as refRuns lays them out, plus the gains once patched — or, where a sum
// does not fit a uint32, a refusal that leaves the receiver as it was.
// Each input is patched twice: with selfPatch's large gains, and with
// unitPatch's, which always fit, so every input reaches a patched index.
// And what Read accepted, Write writes back as a fixed point: written, read
// and written again, the bytes stay the same.
func FuzzIndexRead(f *testing.F) {
	_, ix := buildToyIndex(f)
	f.Add(writeBytes(f, ix), uint16(14))
	f.Add(writeBytes(f, ix), uint16(3))
	f.Add(writeBytes(f, Empty(2)), uint16(0))
	// Written counts of every varint width a header can hold, up to
	// 2^32-1, beside pair counts of every width.
	f.Add(rowBytes(f, 2,
		csr[graph.NodeID]{keys: []graph.NodeID{1, 5}, off: []int32{0, 2, 4}, ent: []Entry{{0, 127}, {1, 128}, {0, 16384}, {1, math.MaxUint32}}},
		csr[PairKey]{keys: []PairKey{MakePairKey(1, 5)}, off: []int32{0, 2}, ent: []Entry{{0, 16383}, {1, 16384}}},
	), uint16(8))
	f.Add(writeBytes(f, wideIndex()), uint16(8))
	// Counts written for one metagraph and derived for the others, the
	// derived ones of pair counts above 1.
	f.Add(rowBytes(f, 3,
		csr[graph.NodeID]{keys: []graph.NodeID{1, 5}, off: []int32{0, 1, 2}, ent: []Entry{{0, 4}, {0, 9}}},
		csr[PairKey]{keys: []PairKey{MakePairKey(0, 1), MakePairKey(0, 2), MakePairKey(1, 2), MakePairKey(1, 5), MakePairKey(3, 6)},
			off: []int32{0, 1, 2, 3, 5, 6}, ent: []Entry{{2, 1}, {2, 1}, {2, 1}, {0, 2}, {2, 1}, {2, 3}}},
	), uint16(8))
	// Rows that mix 4-node metagraphs with counts above 1, as MaxNodes 4
	// builds them: runs of ones and runs with counts.
	rng := rand.New(rand.NewSource(1))
	g, ms := countGraph(rng), countMetagraphs(rng)
	counted := SerialIndex(ms, match.NewSymISO(g))
	if !slices.ContainsFunc(counted.pairTable().ent, func(e Entry) bool { return e.Count > 1 }) {
		f.Fatal("the counted seed has no count above 1")
	}
	f.Add(writeBytes(f, counted), uint16(g.NumNodes()))
	f.Add([]byte("garbage"), uint16(8))
	// Runs that copy: a clique, whose nodes copy their predecessor's
	// partners above them whole, and the counted index patched, whose
	// gains make some copies skip and some residuals carry counts.
	clique := writeBytes(f, cliqueIndex(12))
	if !copies(f, clique) {
		f.Fatal("the clique seed copies nothing")
	}
	f.Add(clique, uint16(12))
	patched, err := counted.WithPatch(unitPatch(counted, g.NumNodes()))
	if err != nil {
		f.Fatal(err)
	}
	if raw := writeBytes(f, patched); copies(f, raw) {
		f.Add(raw, uint16(g.NumNodes()))
	} else {
		f.Fatal("the patched seed copies nothing")
	}
	// The counted index with a bit of its last byte's padding set.
	f.Add(flipBit(f, writeBytes(f, counted), func(raw []byte) bool {
		fr, err := flat.NewReader(bytes.NewReader(raw), sectionMagic)
		if err != nil {
			return false
		}
		_, err = DecodeRuns(fr, g.NumNodes())
		return err != nil && strings.Contains(err.Error(), "padding")
	}), uint16(g.NumNodes()))
	// Each refusal of the counts: node 0's run of metagraph 0 holds 1 and
	// 2, of count 1 each, under a divisor of 2 (node 1's sum, 1, does not
	// divide); under written counts, one more for node 4, which has no run;
	// and a written count of 0.
	run := []uint64{1, 1, 2, 1, 1 << 1, 0, 2<<1 | 1, 1, 1}
	for _, counts := range [][]uint64{{2}, {0, 4, 1, 2, 1, 1, 1, 1, 2, 1}, {0, 3, 1, 2, 1, 0, 1, 1}} {
		f.Add(fieldBytes(f, append(slices.Clone(run), counts...)...), uint16(8))
	}
	f.Fuzz(func(t *testing.T, data []byte, numNodes uint16) {
		// Decode, not Read: Read's checksum turns away nearly every
		// mutation, and the structural checks must hold without it.
		fr, err := flat.NewReader(bytes.NewReader(data), sectionMagic)
		if err != nil {
			return
		}
		ix, err := DecodeRuns(fr, int(numNodes))
		if err != nil || ix.NumMeta() > 1<<16 { // scanEverything allocates a weight vector
			return
		}
		fr, _ = flat.NewReader(bytes.NewReader(data), sectionMagic)
		numMeta := fr.ExpGolomb(ordSize)
		declared, _ := declaredRuns(fr, numMeta)
		declaredMx := declaredCounts(fr, &declared)
		holdsRows(t, "decoded", ix, declared)
		laysOutRef(t, "decoded", ix, declaredMx)
		scanEverything(t, ix, int(numNodes))
		// The same after a patch.
		once := writeBytes(t, ix)
		for name, patch := range map[string]*Patch{"self": selfPatch(ix, int(numNodes)), "unit": unitPatch(ix, int(numNodes))} {
			wantMx, mxFits := addRows(declaredMx, countsOf(&patch.up))
			wantMxy, mxyFits := addRows(declared, rowsOf(&patch.up))
			fits := mxFits && mxyFits
			if name == "unit" && !fits {
				t.Fatal("unitPatch's gains overflow a uint32")
			}
			patched, err := ix.WithPatch(patch)
			if err != nil || !fits {
				if fits || err == nil || !strings.Contains(err.Error(), "overflow") || !bytes.Equal(writeBytes(t, ix), once) {
					t.Fatalf("%s: gains that fit a uint32: %v; WithPatch returned %v, the receiver unchanged: %v", name, fits, err, bytes.Equal(writeBytes(t, ix), once))
				}
				continue
			}
			holdsRows(t, name+" patched", patched, wantMxy)
			laysOutRef(t, name+" patched", patched, wantMx)
			scanEverything(t, patched, int(numNodes))
		}

		back, err := ReadSection(bytes.NewReader(once), int(numNodes))
		if err != nil {
			t.Fatalf("Read refuses what Write wrote of a decoded index: %v", err)
		}
		if !bytes.Equal(writeBytes(t, back), once) {
			t.Fatal("Write(ReadSection(Write(ix))) differs from Write(ix)")
		}
	})
}

// holdsRows holds the pair rows ix's runs walk out, and each read by key
// from either endpoint, to the table want.
func holdsRows(t *testing.T, label string, ix *Index, want csr[PairKey]) {
	t.Helper()
	got := ix.pairTable()
	if !slices.Equal(got.keys, want.keys) || !slices.Equal(got.ent, want.ent) || (len(want.keys) > 0 && !slices.Equal(got.off, want.off)) {
		t.Fatalf("%s: the runs hold pair rows %v %v %v; the stream declares %v %v %v", label, got.keys, got.off, got.ent, want.keys, want.off, want.ent)
	}
	for r, k := range want.keys {
		x, y := k.Nodes()
		row := want.ent[want.off[r]:want.off[r+1]]
		if !slices.Equal(ix.PairVec(x, y).ent, row) || !slices.Equal(ix.PairVec(y, x).ent, row) {
			t.Fatalf("%s: m_%v reads %v and %v by key; the stream declares %v", label, k, ix.PairVec(x, y).ent, ix.PairVec(y, x).ent, row)
		}
	}
}

// declaredRuns reads the runs section of a stream Decode accepted the
// plain way — every run above its node in a map by node and metagraph, a
// copy merged with its residuals by sorting — and returns the pair rows
// it declares and how many of its runs copy.
func declaredRuns(r *flat.Reader, numMeta uint64) (rows csr[PairKey], copying int) {
	type at struct {
		q graph.NodeID
		m int32
	}
	above := map[at][]posting{}
	declared := map[PairKey][]Entry{}
	b := uint(bits.Len64(numMeta))
	nRuns, _ := r.ExpGolomb(ordSize), r.ExpGolomb(ordSize)
	q := graph.NodeID(-1)
	for runs := uint64(0); runs < nRuns; {
		q += graph.NodeID(r.ExpGolomb(ordNode))
		head := r.ExpGolomb(ordRunHead)
		metas := []int32{int32(head & (1<<b - 1))}
		for j := uint64(1); j < head>>b; j++ {
			metas = append(metas, metas[j-1]+int32(r.ExpGolomb(ordMetaGap)))
		}
		for _, m := range metas {
			var run []posting
			if d := r.ExpGolomb(ordRef); d != 0 {
				copying++
				var ref []posting
				for _, p := range above[at{q - graph.NodeID(d), m}] {
					if p.node > q {
						ref = append(ref, p)
					}
				}
				k := r.ExpGolomb(ordBlocks)
				take := true
				for j := uint64(0); j < k; j++ {
					n := r.ExpGolomb(ordBlock)
					if take {
						run = append(run, ref[:n]...)
					}
					ref, take = ref[n:], !take
				}
				if take {
					run = append(run, ref...)
				}
			}
			h := r.ExpGolomb(ordResHead)
			res, last := []posting{}, q
			for j := uint64(0); j < h>>1; j++ {
				last += graph.NodeID(r.ExpGolomb(ordResGap))
				res = append(res, posting{last, 1})
			}
			for j := range res {
				if h&1 == 0 {
					res[j].count = uint32(r.ExpGolomb(ordResCnt))
				}
			}
			run = append(run, res...)
			slices.SortFunc(run, func(a, b posting) int { return cmp.Compare(a.node, b.node) })
			above[at{q, m}] = run
			for _, p := range run {
				declared[MakePairKey(q, p.node)] = append(declared[MakePairKey(q, p.node)], Entry{m, p.count})
			}
		}
		runs += head >> b
	}
	return tableOf(declared), copying
}

// declaredCounts reads the counts section of a stream Decode accepted,
// after the runs declaredRuns read into the pair rows rows, the plain way:
// per metagraph the rows hold, ascending, its divisor; a node's count is
// its pairs' sum over that divisor, or, where it is 0, the count written.
func declaredCounts(r *flat.Reader, rows *csr[PairKey]) csr[graph.NodeID] {
	sums := sumsOf(rows)
	metas := slices.Compact(slices.Sorted(slices.Values(sums.metas())))
	div := map[int32]uint64{}
	for _, m := range metas {
		div[m] = r.ExpGolomb(ordDiv)
	}
	nodes := map[graph.NodeID][]Entry{}
	sums.each(func(x graph.NodeID, row []Entry) {
		for _, e := range row {
			if d := div[e.Meta]; d != 0 {
				nodes[x] = append(nodes[x], Entry{e.Meta, e.Count / uint32(d)})
			}
		}
	})
	for _, m := range metas {
		if div[m] == 0 {
			v := graph.NodeID(-1)
			for n := r.ExpGolomb(ordSize); n > 0; n-- {
				v += graph.NodeID(r.ExpGolomb(ordCntGap))
				nodes[v] = append(nodes[v], Entry{m, uint32(r.ExpGolomb(ordCnt))})
			}
		}
	}
	return tableOf(nodes)
}

// cliqueIndex is the index of one metagraph over a clique of n nodes:
// every pair holds a count of 1, and every node the count n-1, its run's
// sum.
func cliqueIndex(n int) *Index {
	var rows csr[PairKey]
	for x := range graph.NodeID(n) {
		for y := x + 1; int(y) < n; y++ {
			rows.appendRow(MakePairKey(x, y), []Entry{{0, 1}})
		}
	}
	return pairsIndex(1, &rows)
}

// copies reports whether some run of the index stream raw copies from a
// reference.
func copies(t testing.TB, raw []byte) bool {
	t.Helper()
	fr, err := flat.NewReader(bytes.NewReader(raw), sectionMagic)
	if err != nil {
		t.Fatal(err)
	}
	_, copying := declaredRuns(fr, fr.ExpGolomb(ordSize))
	return copying > 0
}

// rowBytes is the stream of an index of node rows mx and pair rows mxy,
// laid down as given: each pair row (x, y) as postings above x — each run
// of x its residuals alone, x's runs ascending by metagraph and x starting
// a new node wherever it differs from the row before — then, per
// metagraph the runs hold, the divisor 1, or 0 and the counts mx holds of
// it where it holds any. Nothing is checked, and gaps wrap, so a corrupt
// table turns into exactly the bytes a corrupt file would hold.
func rowBytes(t testing.TB, numMeta int, mx csr[graph.NodeID], mxy csr[PairKey]) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := flat.NewWriter(&buf, sectionMagic)
	fw.ExpGolomb(uint64(uint32(numMeta)), ordSize)
	type run struct {
		meta int32
		post []posting
	}
	type node struct {
		q    graph.NodeID
		runs []run
	}
	var nodes []node
	var metas []int32
	nRuns := 0
	mxy.each(func(k PairKey, row []Entry) {
		x, y := k.Nodes()
		if len(nodes) == 0 || nodes[len(nodes)-1].q != x {
			nodes = append(nodes, node{q: x})
		}
		n := &nodes[len(nodes)-1]
		for _, e := range row {
			i := slices.IndexFunc(n.runs, func(r run) bool { return r.meta == e.Meta })
			if i < 0 {
				n.runs, i, nRuns = append(n.runs, run{meta: e.Meta}), len(n.runs), nRuns+1
			}
			n.runs[i].post = append(n.runs[i].post, posting{y, e.Count})
			metas = append(metas, e.Meta)
		}
	})
	fw.ExpGolomb(uint64(nRuns), ordSize)
	fw.ExpGolomb(uint64(len(mxy.ent)), ordSize)
	b := uint(bits.Len(uint(numMeta)))
	prev := graph.NodeID(-1)
	for _, n := range nodes {
		slices.SortStableFunc(n.runs, func(a, b run) int { return cmp.Compare(a.meta, b.meta) })
		fw.ExpGolomb(uint64(uint32(n.q-prev)), ordNode)
		fw.ExpGolomb(uint64(len(n.runs))<<b|uint64(uint32(n.runs[0].meta)), ordRunHead)
		for i := 1; i < len(n.runs); i++ {
			fw.ExpGolomb(uint64(uint32(n.runs[i].meta-n.runs[i-1].meta)), ordMetaGap)
		}
		for _, r := range n.runs {
			ones := !slices.ContainsFunc(r.post, func(p posting) bool { return p.count != 1 })
			fw.ExpGolomb(0, ordRef) // no reference
			fw.ExpGolomb(uint64(len(r.post))<<1|uint64(b2i(ones)), ordResHead)
			last := n.q
			for _, p := range r.post {
				fw.ExpGolomb(uint64(uint32(p.node-last)), ordResGap)
				last = p.node
			}
			for _, p := range r.post {
				if !ones {
					fw.ExpGolomb(uint64(p.count), ordResCnt)
				}
			}
		}
		prev = n.q
	}
	slices.Sort(metas)
	metas = slices.Compact(metas)
	written := slices.DeleteFunc(slices.Clone(metas), func(m int32) bool { return !slices.Contains(mx.metas(), m) })
	for _, m := range metas {
		fw.ExpGolomb(uint64(b2i(!slices.Contains(written, m))), ordDiv)
	}
	for _, m := range written {
		var counts []nodeCount
		mx.each(func(x graph.NodeID, row []Entry) {
			for _, e := range row {
				if e.Meta == m {
					counts = append(counts, nodeCount{x, e})
				}
			}
		})
		fw.ExpGolomb(uint64(len(counts)), ordSize)
		last := graph.NodeID(-1)
		for _, c := range counts {
			fw.ExpGolomb(uint64(uint32(c.node-last)), ordCntGap)
			fw.ExpGolomb(uint64(c.Count), ordCnt)
			last = c.node
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fieldBytes is the framed section (WriteSection) whose fields, in stream
// order, are vals: each written as the code of the order Decode reads it
// with, the format's grammar followed as the values steer it (run counts
// and metagraphs, all-ones bits, references, block counts, divisors)
// until they run out. Decode reads the same values in the same order up to
// wherever it refuses them, so a hand-written table of values is exactly
// the bytes a corrupt file would hold. A value past the largest its order
// codes (2^64-1 at order 0, say) is written as that largest value.
func fieldBytes(t testing.TB, vals ...uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := flat.NewWriter(&buf, sectionMagic)
	next := func(k uint) uint64 {
		if len(vals) == 0 {
			return 0
		}
		v := min(vals[0], math.MaxUint64-1<<k)
		fw.ExpGolomb(v, k)
		vals = vals[1:]
		return v
	}
	more := func() bool { return len(vals) > 0 }
	numMeta := next(ordSize)
	b := uint(bits.Len64(numMeta))
	metas := map[uint64]bool{}
	nRuns, _ := next(ordSize), next(ordSize)
	for runs := uint64(0); runs < nRuns && more(); {
		next(ordNode)
		head := next(ordRunHead)
		l, m := head>>b, head&(1<<b-1)
		metas[m] = true
		for j := uint64(1); j < l && more(); j++ {
			m += next(ordMetaGap)
			metas[m] = true
		}
		for j := uint64(0); j < l && more(); j++ {
			if next(ordRef) != 0 {
				for k := next(ordBlocks); k > 0 && more(); k-- {
					next(ordBlock)
				}
			}
			h := next(ordResHead)
			for k := h >> 1; k > 0 && more(); k-- {
				next(ordResGap)
			}
			for k := h >> 1; h&1 == 0 && k > 0 && more(); k-- {
				next(ordResCnt)
			}
		}
		runs += l
	}
	written := 0
	for range metas {
		if more() && next(ordDiv) == 0 {
			written++
		}
	}
	for ; written > 0 && more(); written-- {
		for k := next(ordSize); k > 0 && more(); k-- {
			next(ordCntGap)
			next(ordCnt)
		}
	}
	for more() {
		next(ordSize)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// flipBit returns raw with one bit flipped — the first, from the end of the
// body back, for which want holds — and its checksum left as it was.
func flipBit(t testing.TB, raw []byte, want func([]byte) bool) []byte {
	t.Helper()
	for i := len(raw) - 5; i >= 0; i-- {
		for bit := range 8 {
			bad := bytes.Clone(raw)
			bad[i] ^= 1 << bit
			if want(bad) {
				return bad
			}
		}
	}
	t.Fatal("no bit of the stream flips as wanted")
	return nil
}

// sameRuns reports whether two run layouts are identical, headers and all.
func sameRuns(a, b *adjRuns) bool {
	return slices.Equal(a.first, b.first) && slices.Equal(a.head, b.head) && slices.Equal(a.off, b.off) && slices.Equal(a.post, b.post)
}

// addRows is base with the rows of gains added, key by key and metagraph
// by metagraph; fits is false when a sum does not fit a uint32.
func addRows[K cmp.Ordered](base, gains csr[K]) (sum csr[K], fits bool) {
	counts := map[K]map[int32]uint64{}
	add := func(k K, row []Entry) {
		if counts[k] == nil {
			counts[k] = map[int32]uint64{}
		}
		for _, e := range row {
			counts[k][e.Meta] += uint64(e.Count)
		}
	}
	base.each(add)
	gains.each(add)
	rows, fits := map[K][]Entry{}, true
	for k, row := range counts {
		for m, c := range row {
			rows[k] = append(rows[k], Entry{m, uint32(c)})
			fits = fits && c <= math.MaxUint32
		}
	}
	return tableOf(rows), fits
}
