package match

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/metagraph"
)

// Focused SymISO tests beyond the cross-engine differential suite: the
// component-reuse machinery has its own invariants worth pinning down.

// buildM5Graph plants several instances of the M5 pattern (Fig. 5): users
// with majors under shared schools.
func buildM5Graph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	for _, n := range []string{"user", "major", "school"} {
		b.Types().Register(n)
	}
	// Two schools; each school has users with majors, plus one "plain"
	// user directly attached to the school.
	for s := 0; s < 2; s++ {
		school := b.AddNodeOnce("school", fmt.Sprintf("school-%d", s))
		plain := b.AddNodeOnce("user", fmt.Sprintf("plain-%d", s))
		b.AddEdge(plain, school)
		for u := 0; u < 3; u++ {
			user := b.AddNodeOnce("user", fmt.Sprintf("u-%d-%d", s, u))
			major := b.AddNodeOnce("major", fmt.Sprintf("m-%d-%d", s, u))
			b.AddEdge(user, major)
			b.AddEdge(major, school)
		}
	}
	return b.MustBuild()
}

// m5 pattern over the test graph's type ids: user-major-school-user +
// second user-major branch (exactly Fig. 5).
func m5For(g *graph.Graph) *metagraph.Metagraph {
	tu := g.Types().ID("user")
	tm := g.Types().ID("major")
	ts := g.Types().ID("school")
	return metagraph.MustNew(
		[]graph.TypeID{tu, tm, ts, tu, tu, tm},
		[]metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 4, V: 5}, {U: 2, V: 5}})
}

func TestSymISOM5AgainstBruteForce(t *testing.T) {
	g := buildM5Graph(t)
	m := m5For(g)
	want := assignmentSet(NewBruteForce(g), m)
	got := assignmentSet(NewSymISO(g), m)
	if len(want) == 0 {
		t.Fatal("fixture has no M5 assignments; test is vacuous")
	}
	if len(got) != len(want) {
		t.Fatalf("SymISO found %d assignments, brute force %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("assignment sets differ at %d", i)
		}
	}
}

// TestSymISOHandlesSingleEdgeUserPair exercises the degenerate "group is
// the whole metagraph" case: two directly linked same-type nodes.
func TestSymISOHandlesSingleEdgeUserPair(t *testing.T) {
	b := graph.NewBuilder()
	u1 := b.AddNode("user", "u1")
	u2 := b.AddNode("user", "u2")
	u3 := b.AddNode("user", "u3")
	b.AddEdge(u1, u2)
	b.AddEdge(u2, u3)
	g := b.MustBuild()
	m := metagraph.MustNew([]graph.TypeID{0, 0}, []metagraph.Edge{{U: 0, V: 1}})
	// Assignments: (u1,u2),(u2,u1),(u2,u3),(u3,u2) = 4.
	if got := CountAssignments(NewSymISO(g), m); got != 4 {
		t.Fatalf("assignments = %d, want 4", got)
	}
	if got := CountInstances(NewSymISO(g), m); got != 2 {
		t.Fatalf("instances = %d, want 2", got)
	}
}

// TestSymISOStarGroup exercises a group with three mutually symmetric
// members (school with three user leaves).
func TestSymISOStarGroup(t *testing.T) {
	b := graph.NewBuilder()
	b.Types().Register("school")
	b.Types().Register("user")
	s1 := b.AddNode("school", "s1")
	for i := 0; i < 4; i++ {
		u := b.AddNode("user", fmt.Sprintf("u%d", i))
		b.AddEdge(u, s1)
	}
	g := b.MustBuild()
	star := metagraph.MustNew(
		[]graph.TypeID{g.Types().ID("school"), g.Types().ID("user"), g.Types().ID("user"), g.Types().ID("user")},
		[]metagraph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
	// Assignments: 4·3·2 = 24 ordered leaf triples; instances: C(4,3) = 4.
	for _, eng := range allMatchers(g) {
		if got := CountAssignments(eng.Matcher, star); got != 24 {
			t.Fatalf("%s: assignments = %d, want 24", eng.name, got)
		}
		if got := CountInstances(eng.Matcher, star); got != 4 {
			t.Fatalf("%s: instances = %d, want 4", eng.name, got)
		}
	}
}

// TestSymISORDeterministicPerSeed: the random order must be reproducible.
func TestSymISORDeterministicPerSeed(t *testing.T) {
	g := buildM5Graph(t)
	m := m5For(g)
	a := assignmentSet(NewSymISOR(g, 5), m)
	bs := assignmentSet(NewSymISOR(g, 5), m)
	if len(a) != len(bs) {
		t.Fatal("SymISO-R not deterministic for a fixed seed")
	}
	// And equal to SymISO's set regardless of order.
	c := assignmentSet(NewSymISO(g), m)
	if len(a) != len(c) {
		t.Fatalf("SymISO-R found %d assignments, SymISO %d", len(a), len(c))
	}
}

// TestQuickSymISOLargerPatterns drives SymISO against the brute-force
// reference on random 5–6 node patterns, where multi-node symmetric
// components appear.
func TestQuickSymISOLargerPatterns(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		types := 1 + rng.Intn(3)
		g := randomTypedGraph(rng, 6+rng.Intn(14), 10+rng.Intn(40), types)
		n := 5 + rng.Intn(2)
		ts := make([]graph.TypeID, n)
		for i := range ts {
			ts[i] = graph.TypeID(rng.Intn(types))
		}
		var edges []metagraph.Edge
		for i := 1; i < n; i++ {
			edges = append(edges, metagraph.Edge{U: rng.Intn(i), V: i})
		}
		for k := 0; k < rng.Intn(4); k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				if u > v {
					u, v = v, u
				}
				edges = append(edges, metagraph.Edge{U: u, V: v})
			}
		}
		m := metagraph.MustNew(ts, edges)
		want := assignmentSet(NewBruteForce(g), m)
		got := assignmentSet(NewSymISO(g), m)
		if len(got) != len(want) {
			t.Fatalf("seed %d: SymISO %d vs brute force %d assignments (m=%v)",
				seed, len(got), len(want), m)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: assignment mismatch (m=%v)", seed, m)
			}
		}
	}
}

// TestConnectGroups verifies the SymISO-R order repair keeps connectivity
// to the prefix when possible.
func TestConnectGroups(t *testing.T) {
	g := buildM5Graph(t)
	m := m5For(g)
	d := metagraph.Decompose(m)
	rng := rand.New(rand.NewSource(3))
	idx := rng.Perm(len(d.Groups))
	ordered := connectGroups(m, d.Groups, idx)
	if len(ordered) != len(d.Groups) {
		t.Fatalf("order lost groups: %v", ordered)
	}
	seen := make(map[int]bool)
	var placed []int
	for pos, gi := range ordered {
		if seen[gi] {
			t.Fatal("duplicate group in order")
		}
		seen[gi] = true
		if pos > 0 {
			// Must touch the prefix (M5's component graph is connected).
			touch := false
			for _, c := range d.Groups[gi].Members {
				for _, u := range c.Nodes {
					for _, w := range m.Neighbors(u) {
						for _, pgi := range placed {
							for _, pc := range d.Groups[pgi].Members {
								for _, pu := range pc.Nodes {
									if pu == w {
										touch = true
									}
								}
							}
						}
					}
				}
			}
			if !touch {
				t.Fatalf("group %d at position %d does not touch the prefix", gi, pos)
			}
		}
		placed = append(placed, gi)
	}
	sort.Ints(placed)
}
