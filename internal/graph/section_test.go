package graph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/flat"
)

const sectionMagic = "GRAPH\x01"

// sectionBytes is g's graph section framed as a stream of its own.
func sectionBytes(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := flat.NewWriter(&buf, sectionMagic)
	Encode(w, g)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeSection reads a stream written by sectionBytes (or by hand).
func decodeSection(data []byte) (*Graph, error) {
	r, err := flat.NewReader(bytes.NewReader(data), sectionMagic)
	if err != nil {
		return nil, err
	}
	g, err := Decode(r)
	if err != nil {
		return nil, err
	}
	return g, r.Close()
}

// sameGraph holds got to want under every accessor: registry, types,
// names, each row and typed sub-range, the nodes of each type, edge count
// and the name lookup.
func sameGraph(t testing.TB, got, want *Graph) {
	t.Helper()
	if !slices.Equal(got.Types().Names(), want.Types().Names()) {
		t.Fatalf("types %v, want %v", got.Types().Names(), want.Types().Names())
	}
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%v, want %v", got, want)
	}
	for v := NodeID(0); int(v) < want.NumNodes(); v++ {
		if got.Type(v) != want.Type(v) || got.Name(v) != want.Name(v) {
			t.Fatalf("node %d is (%d, %q), want (%d, %q)", v, got.Type(v), got.Name(v), want.Type(v), want.Name(v))
		}
		if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("node %d neighbours %v, want %v", v, got.Neighbors(v), want.Neighbors(v))
		}
		for ty := TypeID(0); int(ty) < want.NumTypes(); ty++ {
			if !slices.Equal(got.NeighborsOfType(v, ty), want.NeighborsOfType(v, ty)) {
				t.Fatalf("node %d neighbours of type %d differ", v, ty)
			}
		}
		if name := want.Name(v); got.NodeByName(name) != want.NodeByName(name) {
			t.Fatalf("name %q resolves to %d, want %d", name, got.NodeByName(name), want.NodeByName(name))
		}
	}
	for ty := TypeID(0); int(ty) < want.NumTypes(); ty++ {
		if !slices.Equal(got.NodesOfType(ty), want.NodesOfType(ty)) {
			t.Fatalf("nodes of type %d differ", ty)
		}
	}
}

// oddNames are names the text format cannot carry and the section must.
var oddNames = []string{
	" lead", "trail ", " both ", "a\nb", "a\r\nb", "tab\there", "\t", "#hash", "# comment",
	"E 1 2", "N user x", "", " ", "\n", "naïve", "\xff\xfe", strings.Repeat("long ", 20_000),
}

// TestSectionRoundTrip: random graphs — with names of every odd shape,
// registered types no node has, and rows grown by applied deltas — decode
// to the graph they were, and encode again to the same bytes.
func TestSectionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		b := NewBuilder()
		types := []string{"user", "school", "hobby", "ghost"}
		for _, name := range types {
			b.Types().Register(name)
		}
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("v%d", i)
			if rng.Intn(3) == 0 {
				name = oddNames[rng.Intn(len(oddNames))]
			}
			b.AddNode(types[rng.Intn(3)], name)
		}
		for i := 0; n > 0 && i < 3*n; i++ {
			b.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		g := b.MustBuild()
		for step := rng.Intn(3); step > 0; step-- {
			d := Delta{Nodes: []DeltaNode{{Type: types[rng.Intn(3)], Value: oddNames[rng.Intn(len(oddNames))]}}}
			m := g.NumNodes() + 1
			for i := rng.Intn(4); i > 0; i-- {
				d.Edges = append(d.Edges, Edge{NodeID(rng.Intn(m)), NodeID(m - 1)})
			}
			ng, _, err := g.Apply(d)
			if err != nil {
				t.Fatal(err)
			}
			g = ng
		}
		data := sectionBytes(t, g)
		got, err := decodeSection(data)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sameGraph(t, got, g)
		if !bytes.Equal(sectionBytes(t, got), data) {
			t.Fatalf("trial %d: encode after decode drifted", trial)
		}
	}
	empty, err := decodeSection(sectionBytes(t, NewBuilder().MustBuild()))
	if err != nil || empty.NumNodes() != 0 || empty.NumTypes() != 0 {
		t.Fatalf("empty graph: %v, %v", empty, err)
	}
	// As many types as a graph may have; one more and Build refuses.
	b := NewBuilder()
	for i := 0; i < MaxTypes; i++ {
		b.AddNode(fmt.Sprintf("t%d", i), "")
	}
	widest := b.MustBuild()
	got, err := decodeSection(sectionBytes(t, widest))
	if err != nil {
		t.Fatalf("a graph of MaxTypes types: %v", err)
	}
	sameGraph(t, got, widest)
	b.Types().Register("one too many")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "exceed the limit") {
		t.Fatalf("Build of MaxTypes+1 types returned %v", err)
	}
}

// TestSectionKeepsEveryName: each odd name resolves to the same node and
// reads back byte for byte — the names Write/Read trims or splits.
func TestSectionKeepsEveryName(t *testing.T) {
	b := NewBuilder()
	hub := b.AddNode("school", "hub")
	for _, name := range oddNames {
		b.AddEdge(b.AddNode("user", name), hub)
	}
	g := b.MustBuild()
	got, err := decodeSection(sectionBytes(t, g))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range oddNames {
		v := g.NodeByName(name)
		if got.NodeByName(name) != v || v != InvalidNode && got.Name(v) != name {
			t.Fatalf("name %q resolves to %d, want %d", name, got.NodeByName(name), v)
		}
	}
	sameGraph(t, got, g)
}

// fieldSection is the stream of the graph section whose fields are vals,
// in the order a node-by-node reading gives them: numTypes, the type
// names, numNodes, per node its type, shared length and suffix, then the
// neighbour lists. Each integer is written as the code of the order
// Decode reads it with and each string as its length's code, with its
// bytes after the codes as the format lays them out; an integer where a
// suffix goes is a length whose bytes never come. Once the values run out
// the stream ends. A value past the largest its order codes (2^64-1, say)
// is written as that largest value.
func fieldSection(t testing.TB, vals ...any) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := flat.NewWriter(&buf, sectionMagic)
	var raw []string // the bytes that follow the codes
	more := func() bool { return len(vals) > 0 }
	next := func(k uint) uint64 {
		var v uint64
		switch x := vals[0].(type) {
		case int:
			v = uint64(x)
		case uint64:
			v = x
		case string:
			v = uint64(len(x))
			raw = append(raw, x)
		}
		vals = vals[1:]
		v = min(v, math.MaxUint64-1<<k)
		w.ExpGolomb(v, k)
		return v
	}
	nt := next(ordSize)
	for i := uint64(0); i < nt && more(); i++ {
		next(ordSize)
	}
	n := uint64(0)
	if more() {
		n = next(ordSize)
	}
	for v := uint64(0); v < n && more(); v++ {
		next(ordType)
		if more() {
			next(ordShared)
		}
		if more() {
			next(ordSuffix)
		}
	}
	for _, s := range raw {
		w.Raw(s)
	}
	for more() {
		for k := next(ordDegree); k > 0 && more(); k-- {
			next(ordGap)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSectionRejectsCorruptInput: one stream per refusal, each otherwise a
// well-formed section of two types and three nodes — 0 and 1 users, 2 a
// school both attend. A node is its type, the bytes its name shares with
// the previous one, then the rest of its name.
func TestSectionRejectsCorruptInput(t *testing.T) {
	write := func(vals ...any) []byte { return fieldSection(t, vals...) }
	registry := []any{2, "user", "school"}
	nodes := []any{3, 0, 0, "a", 0, 0, "b", 1, 0, "s"}
	section := func(parts ...[]any) []byte {
		var vals []any
		for _, p := range parts {
			vals = append(vals, p...)
		}
		return write(vals...)
	}
	good := section(registry, nodes, []any{1, 2, 1, 1, 0})
	g, err := decodeSection(good)
	if err != nil {
		t.Fatalf("the well-formed section is refused: %v", err)
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(1, 2) || g.HasEdge(0, 1) || g.NumEdges() != 2 {
		t.Fatalf("the well-formed section decodes to %v", g)
	}
	// The most a name may share: all of a short previous name, and the
	// first maxShared bytes of a long one.
	long := strings.Repeat("a", 40)
	g, err = decodeSection(section(registry, []any{3, 0, 0, long, 0, maxShared, "b", 1, 2, "s"}, []any{1, 2, 1, 1, 0}))
	if err != nil {
		t.Fatalf("names sharing as much as they may are refused: %v", err)
	}
	if g.Name(0) != long || g.Name(1) != long[:maxShared]+"b" || g.Name(2) != "aas" {
		t.Fatalf("shared prefixes decode to %q, %q, %q", g.Name(0), g.Name(1), g.Name(2))
	}
	for _, c := range []struct {
		name, want string
		data       []byte
	}{
		{"type id out of range", "has type", section(registry, []any{3, 0, 0, "a", 2, 0, "b", 1, 0, "s"}, []any{1, 2, 1, 1, 0})},
		{"type id of 2^64-1", "has type", section(registry, []any{3, 0, 0, "a", uint64(math.MaxUint64), 0, "b", 1, 0, "s"}, []any{0, 0, 0})},
		{"node 0 sharing a byte", "previous name, which has 0", section(registry, []any{3, 0, 1, "a", 0, 0, "b", 1, 0, "s"}, []any{1, 2, 1, 1, 0})},
		{"a name sharing more than the previous one has", "previous name, which has 1", section(registry, []any{3, 0, 0, "a", 0, 2, "b", 1, 0, "s"}, []any{1, 2, 1, 1, 0})},
		{"a name sharing 2^64-1 bytes", "previous name, which has 1", section(registry, []any{3, 0, 0, "a", 0, uint64(math.MaxUint64), "b", 1, 0, "s"}, []any{1, 2, 1, 1, 0})},
		{"a name sharing more than the cap", "above the cap of 32", section(registry, []any{3, 0, 0, long, 0, maxShared + 1, "b", 1, 0, "s"}, []any{1, 2, 1, 1, 0})},
		{"type name registered twice", "repeats the name", section([]any{2, "user", "user"}, nodes, []any{1, 2, 1, 1, 0})},
		{"more types than MaxTypes", "exceed the limit", section([]any{MaxTypes + 1})},
		{"2^64-1 types", "exceed the limit", section([]any{uint64(math.MaxUint64)})},
		{"node count past a NodeID", "overflow", section(registry, []any{uint64(math.MaxInt32) + 1})},
		{"name longer than the stream", "unexpected EOF", section(registry, []any{2, 0, 0, "a", 0, 0, 1 << 40})},
		{"endpoint = numNodes", "beyond", section(registry, nodes, []any{1, 3, 1, 1, 0})},
		{"endpoint past numNodes", "beyond", section(registry, nodes, []any{1, uint64(math.MaxUint64), 1, 1, 0})},
		{"self loop", "self loop", section(registry, nodes, []any{1, 0, 1, 1, 0})},
		{"neighbours not ascending", "not strictly ascending", section(registry, nodes, []any{2, 1, 0, 1, 1, 0})},
		{"more neighbours above a node than there are", "claims", section(registry, nodes, []any{1, 2, 1, 1, 1, 1})},
	} {
		if _, err := decodeSection(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Decode returned %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

// allocMeter is a stream that refuses to go on once the process has
// allocated more than budget bytes since it was made: a decoder that
// breaks its bound then fails the test instead of exhausting the host.
type allocMeter struct {
	r            io.Reader
	base, budget uint64
	tripped      bool
}

func newAllocMeter(data []byte, budget uint64) *allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &allocMeter{r: bytes.NewReader(data), base: ms.TotalAlloc, budget: budget}
}

func (m *allocMeter) spent() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - m.base
}

func (m *allocMeter) Read(p []byte) (int, error) {
	if m.spent() > m.budget {
		m.tripped = true
		return 0, errors.New("allocation over budget")
	}
	return m.r.Read(p)
}

// TestNameChainCostsWhatItSent: a follower decodes graph sections off the
// network, so a chain of 100 000 names, each sharing as much of the one
// before as it may and adding one byte, must either be refused or cost
// allocation in proportion to the bytes that carried it — here at most
// 40 times the stream's length. Sharing up to maxShared bytes is legal and
// decodes; sharing all of the previous name is refused at the first name
// past the cap, and would otherwise cost n²/2 = 5·10⁹ bytes.
func TestNameChainCostsWhatItSent(t *testing.T) {
	const n, multiple = 100_000, 40
	for _, limit := range []int{maxShared, math.MaxInt} {
		vals := []any{1, "user", n}
		last := 0
		for v := 0; v < n; v++ {
			shared := min(last, limit)
			vals = append(vals, 0, shared, string(rune('a'+v%26)))
			last = shared + 1
		}
		for v := 0; v < n; v++ {
			vals = append(vals, 0) // no neighbours
		}
		raw := fieldSection(t, vals...)
		budget := uint64(multiple * len(raw))
		m := newAllocMeter(raw, budget)
		r, err := flat.NewReader(m, sectionMagic)
		if err != nil {
			t.Fatal(err)
		}
		g, err := Decode(r)
		if err == nil {
			err = r.Close()
		}
		got := m.spent()
		switch {
		case m.tripped || err == nil && got > budget:
			t.Fatalf("sharing up to %d bytes: a %d-byte stream cost %d bytes of allocation, over %d", limit, len(raw), got, budget)
		case limit == maxShared && err != nil:
			t.Fatalf("a chain sharing up to maxShared bytes is refused: %v", err)
		case limit == maxShared && g.Name(n-1) != g.Name(maxShared-1)+string(rune('a'+(n-1)%26)):
			t.Fatalf("the chain's last name decodes to %q", g.Name(n-1))
		case limit != maxShared && (err == nil || !strings.Contains(err.Error(), "above the cap")):
			t.Fatalf("a chain sharing past maxShared: Decode returned %v", err)
		}
	}
}

// FuzzGraphDecode feeds arbitrary bytes through Decode (no checksum, so
// the structural checks stand alone): it may refuse them, but a graph it
// returns must answer every accessor without a panic and encode to a
// section that decodes to the same graph.
func FuzzGraphDecode(f *testing.F) {
	b := NewBuilder()
	b.Types().Register("ghost")
	hub := b.AddNode("school", "hub")
	for _, name := range oddNames[:8] {
		b.AddEdge(b.AddNode("user", name), hub)
	}
	f.Add(sectionBytes(f, b.MustBuild()))
	f.Add(sectionBytes(f, buildToy(f)))
	f.Add(sectionBytes(f, NewBuilder().MustBuild()))
	// Names that share prefixes with the one before — past maxShared too —
	// and, at "school-1" and "", none.
	long := strings.Repeat("x", maxShared+8)
	b = NewBuilder()
	hub = b.AddNode("school", "school-1")
	for _, name := range []string{"user-1", "user-10", "user-11", "user-2", long + "a", long + "b", "", "u"} {
		b.AddEdge(b.AddNode("user", name), hub)
	}
	f.Add(sectionBytes(f, b.MustBuild()))
	f.Add([]byte(sectionMagic + "garbage"))
	// The toy graph with a bit of padding set: the first, from the end of
	// the section back, that Decode refuses as padding.
	toy, padded := sectionBytes(f, buildToy(f)), false
	for i := len(toy) - 5; i >= 0 && !padded; i-- {
		bad := slices.Clone(toy)
		bad[i] ^= 1
		if _, err := decodeSection(bad); err != nil && strings.Contains(err.Error(), "padding") {
			f.Add(bad)
			padded = true
		}
	}
	if !padded {
		f.Fatal("no last bit of a byte of the toy section is padding")
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := flat.NewReader(bytes.NewReader(data), sectionMagic)
		if err != nil {
			return
		}
		g, err := Decode(r)
		if err != nil || g.NumNodes()*(g.NumTypes()+1) > 1<<20 {
			return
		}
		for v := NodeID(0); int(v) < g.NumNodes(); v++ {
			for _, u := range g.Neighbors(v) {
				if !g.HasEdge(u, v) || u == v {
					t.Fatalf("row %d holds %d, which is not an edge", v, u)
				}
			}
			for ty := TypeID(0); int(ty) < g.NumTypes(); ty++ {
				for _, u := range g.NeighborsOfType(v, ty) {
					if g.Type(u) != ty {
						t.Fatalf("typed row (%d,%d) holds %d of type %d", v, ty, u, g.Type(u))
					}
				}
			}
			g.NodeByName(g.Name(v))
		}
		again, err := decodeSection(sectionBytes(t, g))
		if err != nil {
			t.Fatalf("a decoded graph's own section is refused: %v", err)
		}
		sameGraph(t, again, g)
	})
}
