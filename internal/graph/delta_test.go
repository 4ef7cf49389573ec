package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// applyToy builds a small two-type graph for delta tests.
func applyToy(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	u0 := b.AddNode("user", "u0")
	u1 := b.AddNode("user", "u1")
	u2 := b.AddNode("user", "u2")
	s0 := b.AddNode("school", "s0")
	s1 := b.AddNode("school", "s1")
	b.AddEdge(u0, s0)
	b.AddEdge(u1, s0)
	b.AddEdge(u2, s1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestApplyAddsNodesAndEdges(t *testing.T) {
	g := applyToy(t)
	ng, touched, err := g.Apply(Delta{
		Nodes: []DeltaNode{{Type: "user", Value: "u3"}},
		Edges: []Edge{{5, 3}, {0, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 5 || g.NumEdges() != 3 {
		t.Fatalf("receiver mutated: %v", g)
	}
	if ng.NumNodes() != 6 || ng.NumEdges() != 5 {
		t.Fatalf("apply result: %v", ng)
	}
	if ng.Version() != 1 || g.Version() != 0 {
		t.Fatalf("versions: old %d new %d", g.Version(), ng.Version())
	}
	if want := []NodeID{0, 3, 4}; len(touched) != 3 || touched[0] != want[0] || touched[1] != want[1] || touched[2] != want[2] {
		t.Fatalf("touched = %v, want %v", touched, want)
	}
	if !ng.HasEdge(5, 3) || !ng.HasEdge(0, 4) || ng.HasEdge(5, 4) {
		t.Fatal("edge membership wrong after apply")
	}
	if ng.Name(5) != "u3" || ng.Type(5) != ng.Types().ID("user") {
		t.Fatal("new node attributes wrong")
	}
	if got := ng.NumNodesOfType(ng.Types().ID("user")); got != 4 {
		t.Fatalf("users after apply = %d, want 4", got)
	}
}

func TestApplyValidation(t *testing.T) {
	g := applyToy(t)
	if _, _, err := g.Apply(Delta{Nodes: []DeltaNode{{Type: "nope", Value: "x"}}}); err == nil {
		t.Fatal("unknown type accepted")
	}
	if _, _, err := g.Apply(Delta{Edges: []Edge{{0, 99}}}); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
}

func TestApplyIgnoresDupesAndSelfLoops(t *testing.T) {
	g := applyToy(t)
	ng, touched, err := g.Apply(Delta{Edges: []Edge{{0, 0}, {0, 3}, {3, 0}, {1, 3}, {1, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	// {0,3} and {1,3} already exist; nothing is genuinely new.
	if ng.NumEdges() != g.NumEdges() {
		t.Fatalf("edges = %d, want %d", ng.NumEdges(), g.NumEdges())
	}
	if len(touched) != 0 {
		t.Fatalf("touched = %v, want empty", touched)
	}
	if ng.Version() != 1 {
		t.Fatalf("version = %d, want 1 (empty deltas still advance)", ng.Version())
	}
}

// graphBytes serializes a graph for structural comparison.
func graphBytes(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestApplyEqualsRebuild is the core property of Apply: a chain of random
// deltas applied to a random base graph yields exactly the graph a
// from-scratch Build of the final node/edge set produces, under every
// accessor.
func TestApplyEqualsRebuild(t *testing.T) {
	typeNames := []string{"user", "school", "hobby"}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		// Random base.
		b := NewBuilder()
		for _, n := range typeNames {
			b.Types().Register(n)
		}
		n0 := 5 + rng.Intn(10)
		for i := 0; i < n0; i++ {
			b.AddNode(typeNames[rng.Intn(len(typeNames))], "")
		}
		for i := 0; i < 2*n0; i++ {
			b.AddEdge(NodeID(rng.Intn(n0)), NodeID(rng.Intn(n0)))
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}

		// Shadow builder accumulating the same mutations.
		sb := NewBuilder()
		for _, n := range typeNames {
			sb.Types().Register(n)
		}
		for v := NodeID(0); int(v) < g.NumNodes(); v++ {
			sb.AddNode(typeNames[g.Type(v)], g.Name(v))
		}
		g.Edges(func(u, v NodeID) bool { sb.AddEdge(u, v); return true })

		for step := 0; step < 4; step++ {
			var d Delta
			for i := rng.Intn(3); i > 0; i-- {
				d.Nodes = append(d.Nodes, DeltaNode{Type: typeNames[rng.Intn(len(typeNames))], Value: ""})
			}
			max := g.NumNodes() + len(d.Nodes)
			for i := 1 + rng.Intn(5); i > 0; i-- {
				d.Edges = append(d.Edges, Edge{NodeID(rng.Intn(max)), NodeID(rng.Intn(max))})
			}
			ng, _, err := g.Apply(d)
			if err != nil {
				t.Fatal(err)
			}
			g = ng
			for _, dn := range d.Nodes {
				sb.AddNode(dn.Type, dn.Value)
			}
			for _, e := range d.Edges {
				sb.AddEdge(e.U, e.V)
			}
		}

		want, err := sb.Build()
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]*Graph{"applied": g} {
			if !bytes.Equal(graphBytes(t, got), graphBytes(t, want)) {
				t.Fatalf("trial %d: %s graph differs from rebuild", trial, name)
			}
			if got.NumEdges() != want.NumEdges() {
				t.Fatalf("trial %d: %s edges %d want %d", trial, name, got.NumEdges(), want.NumEdges())
			}
			for v := NodeID(0); int(v) < want.NumNodes(); v++ {
				if got.Degree(v) != want.Degree(v) {
					t.Fatalf("trial %d: %s degree(%d)", trial, name, v)
				}
				for ty := TypeID(0); int(ty) < want.NumTypes(); ty++ {
					a, bz := got.NeighborsOfType(v, ty), want.NeighborsOfType(v, ty)
					if len(a) != len(bz) {
						t.Fatalf("trial %d: %s typed row (%d,%d)", trial, name, v, ty)
					}
					for i := range a {
						if a[i] != bz[i] {
							t.Fatalf("trial %d: %s typed row (%d,%d)[%d]", trial, name, v, ty, i)
						}
					}
				}
			}
		}
	}
}

// TestDeltaEdges pins what the post-delta graph remembers of its delta:
// the genuinely new edges, normalized, in delta order — and nothing of any
// earlier delta.
func TestDeltaEdges(t *testing.T) {
	g := applyToy(t) // u0-s0, u1-s0, u2-s1
	if len(g.DeltaEdges()) != 0 {
		t.Fatalf("built graph has delta edges %v", g.DeltaEdges())
	}
	ng, _, err := g.Apply(Delta{
		Nodes: []DeltaNode{{Type: "user", Value: "u3"}},
		Edges: []Edge{{5, 3}, {0, 3}, {2, 2}, {3, 5}, {4, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Edge{{3, 5}, {1, 4}} // 0-3 is present, 2-2 a loop, 3-5 repeated
	if got := ng.DeltaEdges(); !slices.Equal(got, want) {
		t.Fatalf("DeltaEdges = %v, want %v", got, want)
	}
	if got := ng.WithVersion(7).DeltaEdges(); !slices.Equal(got, want) {
		t.Fatalf("WithVersion dropped the delta edges: %v", got)
	}
	noop, _, err := ng.Apply(Delta{Edges: []Edge{{5, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := noop.DeltaEdges(); len(got) != 0 {
		t.Fatalf("no-op delta inherited delta edges %v", got)
	}
}

func TestWithVersion(t *testing.T) {
	g := applyToy(t)
	if got := g.WithVersion(9); got.Version() != 9 || g.Version() != 0 {
		t.Fatal("WithVersion wrong")
	}
}

// TestRoundTripPreservesTypeIDs is the regression test for a subtle
// serialization bug: without T lines the reader registered types in node
// order, silently permuting TypeIDs for graphs whose builder registered
// types up front — queries (pure index reads) still worked, but anything
// matching typed patterns against a round-tripped graph matched the
// wrong types.
func TestRoundTripPreservesTypeIDs(t *testing.T) {
	b := NewBuilder()
	// Registration order deliberately differs from node order.
	for _, n := range []string{"user", "school", "hobby", "ghost"} {
		b.Types().Register(n)
	}
	s := b.AddNode("school", "s0") // first NODE is a school
	u := b.AddNode("user", "u0")
	b.AddEdge(u, s)
	g := b.MustBuild()

	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"user", "school", "hobby", "ghost"} {
		if g2.Types().ID(name) != g.Types().ID(name) {
			t.Fatalf("type %q: id %d after round-trip, want %d", name, g2.Types().ID(name), g.Types().ID(name))
		}
	}
	if g2.NumTypes() != g.NumTypes() {
		t.Fatalf("types = %d, want %d (never-used types must survive)", g2.NumTypes(), g.NumTypes())
	}
}
