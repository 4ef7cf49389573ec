package match

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/metagraph"
)

// deltaMetagraphs are the patterns the index and core patch tests re-match
// (their patchMetagraphs and denseMetagraphs, over types 0, 1, 2) plus two
// with an edge between same-typed nodes, where one added edge seeds both
// orientations of one metagraph edge.
func deltaMetagraphs() []*metagraph.Metagraph {
	return []*metagraph.Metagraph{
		metagraph.MustNew([]graph.TypeID{0, 1, 0}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}),
		metagraph.MustNew([]graph.TypeID{0, 2, 0}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}),
		metagraph.MustNew([]graph.TypeID{0, 1, 0, 2}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 3}, {U: 2, V: 3}}),
		metagraph.MustNew([]graph.TypeID{0, 0, 1}, []metagraph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}}),
		metagraph.MustNew([]graph.TypeID{0, 0, 0}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}),
	}
}

// canonicalCounts runs Instances and counts how often each canonical
// assignment is reported.
func canonicalCounts(matcher Matcher, m *metagraph.Metagraph) map[string]int {
	out := make(map[string]int)
	Instances(matcher, m, func(a []graph.NodeID) bool {
		out[fmt.Sprint(a)]++
		return true
	})
	return out
}

// checkDeltaInstances is the enumerator's oracle: on the graph g grown by
// d, the delta-seeded enumeration of every metagraph must report exactly
// Instances(post) − Instances(pre) as canonical assignments, each once. It
// returns the number of new instances over all metagraphs.
func checkDeltaInstances(t testing.TB, label string, g *graph.Graph, d graph.Delta, ms []*metagraph.Metagraph) int {
	t.Helper()
	ng, _, err := g.Apply(d)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	pre, post := NewSymISO(g), NewSymISO(ng.Compact())
	gained := 0
	for mi, m := range ms {
		was, now := canonicalCounts(pre, m), canonicalCounts(post, m)
		got := canonicalCounts(NewDelta(ng), m)
		for a, n := range got {
			if n != 1 {
				t.Fatalf("%s metagraph %d: new instance %s reported %d times", label, mi, a, n)
			}
			if was[a] != 0 || now[a] != 1 {
				t.Fatalf("%s metagraph %d: reported %s, which is not a new instance (pre %d, post %d)", label, mi, a, was[a], now[a])
			}
		}
		for a := range now {
			if was[a] == 0 && got[a] == 0 {
				t.Fatalf("%s metagraph %d: new instance %s not reported (delta edges %v)", label, mi, a, ng.DeltaEdges())
			}
		}
		gained += len(got)
	}
	return gained
}

// TestDeltaInstancesCases walks the shapes a delta can take on one fixed
// graph: u0..u3 of type 0, hubs s (type 1) and h (type 2); every user is on
// s, u0 and u1 are on h.
func TestDeltaInstancesCases(t *testing.T) {
	b := graph.NewBuilder()
	for _, n := range []string{"t0", "t1", "t2"} {
		b.Types().Register(n)
	}
	var u [4]graph.NodeID
	for i := range u {
		u[i] = b.AddNode("t0", "")
	}
	s, h := b.AddNode("t1", ""), b.AddNode("t2", "")
	for _, v := range u {
		b.AddEdge(v, s)
	}
	b.AddEdge(u[0], h)
	b.AddEdge(u[1], h)
	b.AddEdge(u[0], u[1])
	g := b.MustBuild()
	n0, n1 := graph.NodeID(g.NumNodes()), graph.NodeID(g.NumNodes()+1)
	user := graph.DeltaNode{Type: "t0"}

	for _, c := range []struct {
		label string
		d     graph.Delta
		some  bool // the delta must create at least one instance
	}{
		{"new node to the highest-degree hub", graph.Delta{Nodes: []graph.DeltaNode{user}, Edges: []graph.Edge{{U: n0, V: s}}}, true},
		{"old to old", graph.Delta{Edges: []graph.Edge{{U: u[2], V: h}}}, true},
		{"new to new", graph.Delta{Nodes: []graph.DeltaNode{user, user}, Edges: []graph.Edge{{U: n0, V: n1}, {U: n1, V: u[0]}}}, true},
		{"one instance through two delta edges", graph.Delta{Nodes: []graph.DeltaNode{user, user}, Edges: []graph.Edge{{U: n0, V: h}, {U: n1, V: h}, {U: n0, V: s}}}, true},
		{"two delta edges closing a square", graph.Delta{Edges: []graph.Edge{{U: u[2], V: h}, {U: u[3], V: h}}}, true},
		{"duplicate, reversed, present and self-loop edges", graph.Delta{Edges: []graph.Edge{{U: u[2], V: h}, {U: h, V: u[2]}, {U: u[2], V: h}, {U: u[0], V: s}, {U: u[3], V: u[3]}}}, true},
		{"nothing new", graph.Delta{Edges: []graph.Edge{{U: u[0], V: s}, {U: s, V: s}}}, false},
		{"an isolated new node", graph.Delta{Nodes: []graph.DeltaNode{user}}, false},
	} {
		gained := checkDeltaInstances(t, c.label, g, c.d, deltaMetagraphs())
		if c.some != (gained > 0) {
			t.Fatalf("%s: %d new instances", c.label, gained)
		}
	}
}

// randomDelta draws an additive delta against g from rng: up to two new
// nodes and a few edges over old and new ids, with loops, repeats and
// already-present edges left in.
func randomDelta(rng *rand.Rand, g *graph.Graph) graph.Delta {
	var d graph.Delta
	for i := rng.Intn(3); i > 0; i-- {
		d.Nodes = append(d.Nodes, graph.DeltaNode{Type: g.Types().Name(graph.TypeID(rng.Intn(g.NumTypes())))})
	}
	total := g.NumNodes() + len(d.Nodes)
	for i := rng.Intn(6); i > 0; i-- {
		d.Edges = append(d.Edges, graph.Edge{U: graph.NodeID(rng.Intn(total)), V: graph.NodeID(rng.Intn(total))})
	}
	return d
}

// hub returns the highest-degree node of g.
func hub(g *graph.Graph) graph.NodeID {
	best := graph.NodeID(0)
	for v := graph.NodeID(1); int(v) < g.NumNodes(); v++ {
		if g.Degree(v) > g.Degree(best) {
			best = v
		}
	}
	return best
}

// TestQuickDeltaInstances runs the oracle over random typed graphs, random
// deltas (every one also touching the graph's highest-degree node) and both
// the fixed and random metagraphs, twice in a row so the second delta lands
// on an overlaid graph.
func TestQuickDeltaInstances(t *testing.T) {
	gained := 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomTypedGraph(rng, 10+rng.Intn(8), 16+rng.Intn(20), 3)
		ms := append(deltaMetagraphs(), randomMetagraph(rng, 3), randomMetagraph(rng, 3))
		for step := 0; step < 2; step++ {
			d := randomDelta(rng, g)
			d.Edges = append(d.Edges, graph.Edge{U: hub(g), V: graph.NodeID(rng.Intn(g.NumNodes() + len(d.Nodes)))})
			gained += checkDeltaInstances(t, fmt.Sprintf("seed %d step %d", seed, step), g, d, ms)
			g, _, _ = g.Apply(d)
		}
	}
	if gained == 0 {
		t.Fatal("no delta created an instance; the property was not exercised")
	}
}

// TestDeltaEarlyStopAndPlainGraph: a visitor returning false stops the
// enumeration, and a graph that did not come out of Apply matches nothing.
func TestDeltaEarlyStopAndPlainGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomTypedGraph(rng, 12, 30, 2)
	m := metagraph.MustNew([]graph.TypeID{0, 1}, []metagraph.Edge{{U: 0, V: 1}})
	if n := CountAssignments(NewDelta(g), m); n != 0 {
		t.Fatalf("built graph: %d delta assignments", n)
	}
	var d graph.Delta
	for _, u := range g.NodesOfType(0) {
		for _, v := range g.NodesOfType(1) {
			d.Edges = append(d.Edges, graph.Edge{U: u, V: v})
		}
	}
	ng, _, err := g.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(ng.DeltaEdges()) < 2 {
		t.Fatalf("delta added %d edges", len(ng.DeltaEdges()))
	}
	calls := 0
	NewDelta(ng).Match(m, func([]graph.NodeID) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("visitor called %d times after returning false", calls)
	}
}

// FuzzDeltaInstances lets the fuzzer pick the graph (by seed) and spell
// out the delta: the first byte is the number of new nodes, the rest are
// endpoint pairs over old and new ids.
func FuzzDeltaInstances(f *testing.F) {
	f.Add(int64(1), []byte{1, 0, 200, 3, 3, 0, 1})
	f.Add(int64(2), []byte{2, 255, 254, 254, 0, 255, 0})
	f.Add(int64(3), []byte{0, 1, 2, 2, 1, 4, 9, 9, 4})
	f.Fuzz(func(t *testing.T, seed int64, spec []byte) {
		rng := rand.New(rand.NewSource(seed))
		g := randomTypedGraph(rng, 8+rng.Intn(8), 12+rng.Intn(16), 3)
		var d graph.Delta
		if len(spec) > 0 {
			for i := int(spec[0]) % 4; i > 0; i-- {
				d.Nodes = append(d.Nodes, graph.DeltaNode{Type: g.Types().Name(graph.TypeID(i % g.NumTypes()))})
			}
			spec = spec[1:]
		}
		if len(spec) > 24 {
			spec = spec[:24]
		}
		total := g.NumNodes() + len(d.Nodes)
		// Small bytes address old nodes, large ones count down from the
		// newest id, so a mutation reaches both ends of the id space.
		at := func(b byte) graph.NodeID {
			if b >= 128 {
				return graph.NodeID(total - 1 - int(255-b)%total)
			}
			return graph.NodeID(int(b) % total)
		}
		for ; len(spec) >= 2; spec = spec[2:] {
			d.Edges = append(d.Edges, graph.Edge{U: at(spec[0]), V: at(spec[1])})
		}
		ms := append(deltaMetagraphs(), randomMetagraph(rng, 3))
		checkDeltaInstances(t, "fuzz", g, d, ms)
	})
}
