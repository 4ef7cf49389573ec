package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/fixtures"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metagraph"
	"repro/internal/mining"
)

// Fig. 11 times the baselines against SymISO on the same work, so each
// baseline must enumerate exactly SymISO's assignments; SymISO itself is
// checked against a brute-force enumerator in internal/match.

// baseline is a Fig. 11 engine with the name its failures report.
type baseline struct {
	name string
	match.Matcher
}

func fig11Baselines(g *graph.Graph) []baseline {
	return []baseline{
		{"QuickSI", NewQuickSI(g)},
		{"TurboISO", NewTurboISO(g)},
		{"BoostISO", NewBoostISO(g)},
	}
}

// assignmentSet collects the sorted multiset of assignments as strings.
func assignmentSet(matcher match.Matcher, m *metagraph.Metagraph) []string {
	var out []string
	matcher.Match(m, func(a []graph.NodeID) bool {
		out = append(out, fmt.Sprint(a))
		return true
	})
	sort.Strings(out)
	return out
}

// subgraphKey names the instance subgraph an assignment covers: its sorted
// nodes and sorted edges.
func subgraphKey(m *metagraph.Metagraph, a []graph.NodeID) string {
	nodes := slices.Clone(a)
	slices.Sort(nodes)
	var edges [][2]graph.NodeID
	for _, e := range m.Edges() {
		u, v := a[e.U], a[e.V]
		if u > v {
			u, v = v, u
		}
		edges = append(edges, [2]graph.NodeID{u, v})
	}
	slices.SortFunc(edges, func(x, y [2]graph.NodeID) int {
		if x[0] != y[0] {
			return int(x[0]) - int(y[0])
		}
		return int(x[1]) - int(y[1])
	})
	return fmt.Sprint(nodes, edges)
}

// agree reports, through t, whether every baseline enumerates SymISO's
// assignment multiset of m on g.
func agree(t *testing.T, label string, g *graph.Graph, m *metagraph.Metagraph) bool {
	t.Helper()
	want := assignmentSet(match.NewSymISO(g), m)
	for _, b := range fig11Baselines(g) {
		if got := assignmentSet(b.Matcher, m); !slices.Equal(got, want) {
			t.Logf("%s: %s found %d assignments, SymISO %d (m=%v)", label, b.name, len(got), len(want), m)
			return false
		}
	}
	return true
}

// TestMatchersAgreeOnToy: every baseline enumerates SymISO's assignments
// of M1–M4 on the toy network, and stops after the first when asked to.
func TestMatchersAgreeOnToy(t *testing.T) {
	g := fixtures.Toy()
	for _, m := range fixtures.All() {
		if !agree(t, "toy", g, m) {
			t.FailNow()
		}
	}
	for _, b := range fig11Baselines(g) {
		n := 0
		b.Match(fixtures.M3(), func([]graph.NodeID) bool {
			n++
			return false
		})
		if n != 1 {
			t.Errorf("%s: early stop visited %d assignments", b.name, n)
		}
	}
}

// randomTypedGraph builds a random graph for differential tests.
func randomTypedGraph(rng *rand.Rand, nodes, edges, types int) *graph.Graph {
	b := graph.NewBuilder()
	names := make([]string, types)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
		b.Types().Register(names[i])
	}
	for i := 0; i < nodes; i++ {
		b.AddNode(names[rng.Intn(types)], "")
	}
	for i := 0; i < edges; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(nodes)), graph.NodeID(rng.Intn(nodes)))
	}
	return b.MustBuild()
}

// randomMetagraph builds a random connected metagraph over the type set.
func randomMetagraph(rng *rand.Rand, types int) *metagraph.Metagraph {
	n := 2 + rng.Intn(4)
	ts := make([]graph.TypeID, n)
	for i := range ts {
		ts[i] = graph.TypeID(rng.Intn(types))
	}
	var edges []metagraph.Edge
	for i := 1; i < n; i++ {
		edges = append(edges, metagraph.Edge{U: rng.Intn(i), V: i})
	}
	for k := 0; k < rng.Intn(3); k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u > v {
			u, v = v, u
		}
		if u != v {
			edges = append(edges, metagraph.Edge{U: u, V: v})
		}
	}
	return metagraph.MustNew(ts, edges)
}

// TestQuickMatchersAgree: on random inputs every baseline enumerates
// exactly SymISO's assignment multiset.
func TestQuickMatchersAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		types := 1 + rng.Intn(3)
		g := randomTypedGraph(rng, 4+rng.Intn(20), rng.Intn(50), types)
		return agree(t, fmt.Sprint("seed ", seed), g, randomMetagraph(rng, types))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInstancesAgree: on random inputs match.InstanceSets over every
// baseline, which filters its assignments by the symmetry-breaking
// conditions, visits each instance subgraph SymISO's assignments cover
// exactly once.
func TestQuickInstancesAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		types := 1 + rng.Intn(3)
		g := randomTypedGraph(rng, 4+rng.Intn(16), rng.Intn(40), types)
		m := randomMetagraph(rng, types)
		want := make(map[string]bool)
		match.NewSymISO(g).Match(m, func(a []graph.NodeID) bool {
			want[subgraphKey(m, a)] = true
			return true
		})
		for _, b := range fig11Baselines(g) {
			got := make(map[string]bool)
			ok := true
			match.InstanceSets(b.Matcher, m, func(s match.Set) bool {
				k := subgraphKey(m, s.A)
				ok = ok && len(s.P) == 0 && want[k] && !got[k]
				got[k] = true
				return true
			})
			if !ok || len(got) != len(want) {
				t.Logf("seed %d: %s visited %d instances, SymISO covers %d (m=%v)", seed, b.name, len(got), len(want), m)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestBoostISOClasses(t *testing.T) {
	// Two leaf users attached to the same school are equivalent; a third
	// attached elsewhere is not.
	b := graph.NewBuilder()
	s1 := b.AddNode("school", "s1")
	s2 := b.AddNode("school", "s2")
	u1 := b.AddNode("user", "u1")
	u2 := b.AddNode("user", "u2")
	u3 := b.AddNode("user", "u3")
	b.AddEdge(u1, s1)
	b.AddEdge(u2, s1)
	b.AddEdge(u3, s2)
	g := b.MustBuild()
	bi := NewBoostISO(g)
	if bi.class[u1] != bi.class[u2] {
		t.Fatal("duplicate leaves should share a class")
	}
	if bi.class[u1] == bi.class[u3] {
		t.Fatal("leaves of different schools must not share a class")
	}
	if len(bi.members) >= g.NumNodes() {
		t.Fatalf("%d classes, want < %d", len(bi.members), g.NumNodes())
	}
}

// TestSymISOM5AgainstQuickSI: on planted instances of Fig. 5's M5, whose
// components {u1,u2} and {u5,u6} are jointly symmetric, QuickSI enumerates
// SymISO's assignments.
func TestSymISOM5AgainstQuickSI(t *testing.T) {
	b := graph.NewBuilder()
	for _, n := range fixtures.TypeNames {
		b.Types().Register(n)
	}
	// Two schools; each has users with majors, plus one "plain" user
	// directly attached to the school.
	for s := 0; s < 2; s++ {
		school := b.AddNode("school", "")
		b.AddEdge(b.AddNode("user", ""), school)
		for u := 0; u < 3; u++ {
			user, major := b.AddNode("user", ""), b.AddNode("major", "")
			b.AddEdge(user, major)
			b.AddEdge(major, school)
		}
	}
	g := b.MustBuild()
	m := fixtures.M5()
	want := assignmentSet(match.NewSymISO(g), m)
	if len(want) == 0 {
		t.Fatal("fixture has no M5 assignments; test is vacuous")
	}
	if got := assignmentSet(NewQuickSI(g), m); !slices.Equal(got, want) {
		t.Fatalf("QuickSI found %d assignments, SymISO %d", len(got), len(want))
	}
}

// benchMatcher times one engine's Match over the MaxNodes-4 proximity
// metagraphs of a 200-user LinkedIn graph: Fig. 11's comparison per
// engine. BenchmarkMatchSymISO in the root package runs the same recipe.
func benchMatcher(b *testing.B, mk func(*graph.Graph) match.Matcher) {
	ds := dataset.LinkedIn(dataset.Config{Users: 200, Seed: 1, NoiseRate: 0.05})
	ms := mining.Metagraphs(mining.ProximityFilter(
		mining.Mine(ds.G, mining.Options{MaxNodes: 4, MinSupport: 5}), ds.Anchor))
	if len(ms) == 0 {
		b.Fatal("no metagraphs")
	}
	eng := mk(ds.G)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range ms {
			eng.Match(m, func([]graph.NodeID) bool { return true })
		}
	}
}

func BenchmarkMatchBoostISO(b *testing.B) {
	benchMatcher(b, func(g *graph.Graph) match.Matcher { return NewBoostISO(g) })
}

func BenchmarkMatchTurboISO(b *testing.B) {
	benchMatcher(b, func(g *graph.Graph) match.Matcher { return NewTurboISO(g) })
}

func BenchmarkMatchQuickSI(b *testing.B) {
	benchMatcher(b, func(g *graph.Graph) match.Matcher { return NewQuickSI(g) })
}
