package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// buildToy constructs the toy social network of Fig. 1(a) in the paper:
// five users interconnected through shared attribute nodes.
func buildToy(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder()
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

	for _, e := range [][2]NodeID{
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

func TestBuilderBasics(t *testing.T) {
	g := buildToy(t)
	if g.NumNodes() != 14 {
		t.Fatalf("NumNodes = %d, want 14", g.NumNodes())
	}
	if g.NumEdges() != 18 {
		t.Fatalf("NumEdges = %d, want 18", g.NumEdges())
	}
	if g.NumTypes() != 7 {
		t.Fatalf("NumTypes = %d, want 7", g.NumTypes())
	}
	user := g.Types().ID("user")
	if user == InvalidType {
		t.Fatal("user type missing")
	}
	if n := g.NumNodesOfType(user); n != 5 {
		t.Fatalf("users = %d, want 5", n)
	}
}

func TestAddNodeOnceDeduplicates(t *testing.T) {
	b := NewBuilder()
	a := b.AddNodeOnce("user", "Alice")
	a2 := b.AddNodeOnce("user", "Alice")
	if a != a2 {
		t.Fatalf("AddNodeOnce returned %d then %d for the same key", a, a2)
	}
	// Same value under a different type is a different node.
	c := b.AddNodeOnce("surname", "Alice")
	if c == a {
		t.Fatal("AddNodeOnce merged nodes across types")
	}
}

func TestBuildDedupsEdgesAndSelfLoops(t *testing.T) {
	b := NewBuilder()
	u := b.AddNode("user", "u")
	v := b.AddNode("user", "v")
	b.AddEdge(u, v)
	b.AddEdge(v, u)
	b.AddEdge(u, v)
	b.AddEdge(u, u)
	g := b.MustBuild()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 after dedup", g.NumEdges())
	}
	if g.HasEdge(u, u) {
		t.Fatal("self loop survived Build")
	}
}

func TestBuildRejectsBadEdge(t *testing.T) {
	b := NewBuilder()
	u := b.AddNode("user", "u")
	b.AddEdge(u, 99)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted an edge to a missing node")
	}
}

func TestHasEdge(t *testing.T) {
	g := buildToy(t)
	alice := g.NodeByName("Alice")
	bob := g.NodeByName("Bob")
	clinton := g.NodeByName("Clinton")
	if !g.HasEdge(alice, clinton) || !g.HasEdge(clinton, alice) {
		t.Fatal("HasEdge(Alice, Clinton) = false, want true")
	}
	if g.HasEdge(alice, bob) {
		t.Fatal("HasEdge(Alice, Bob) = true, want false (users are linked via attributes only)")
	}
}

func TestNeighborsSortedByTypeThenID(t *testing.T) {
	g := buildToy(t)
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		nb := g.Neighbors(v)
		for i := 1; i < len(nb); i++ {
			ti, tj := g.Type(nb[i-1]), g.Type(nb[i])
			if ti > tj || (ti == tj && nb[i-1] >= nb[i]) {
				t.Fatalf("node %d neighbors not sorted by (type,id): %v", v, nb)
			}
		}
	}
}

func TestNeighborsOfTypeMatchesFilter(t *testing.T) {
	g := buildToy(t)
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		for tt := TypeID(0); int(tt) < g.NumTypes(); tt++ {
			var want []NodeID
			for _, u := range g.Neighbors(v) {
				if g.Type(u) == tt {
					want = append(want, u)
				}
			}
			got := g.NeighborsOfType(v, tt)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(append([]NodeID(nil), got...), want) {
				t.Fatalf("NeighborsOfType(%d,%d) = %v, want %v", v, tt, got, want)
			}
			if g.DegreeOfType(v, tt) != len(want) {
				t.Fatalf("DegreeOfType(%d,%d) = %d, want %d", v, tt, g.DegreeOfType(v, tt), len(want))
			}
		}
	}
}

func TestEdgesIteratesEachOnce(t *testing.T) {
	g := buildToy(t)
	seen := make(map[[2]NodeID]int)
	g.Edges(func(u, v NodeID) bool {
		if u >= v {
			t.Fatalf("Edges yielded unordered pair (%d,%d)", u, v)
		}
		seen[[2]NodeID{u, v}]++
		return true
	})
	if len(seen) != g.NumEdges() {
		t.Fatalf("Edges yielded %d pairs, want %d", len(seen), g.NumEdges())
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("edge %v yielded %d times", k, c)
		}
	}
}

func TestEdgesEarlyStop(t *testing.T) {
	g := buildToy(t)
	n := 0
	g.Edges(func(u, v NodeID) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop after %d edges, want 3", n)
	}
}

func TestRoundTripIO(t *testing.T) {
	g := buildToy(t)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatalf("Write: %v", err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() || g2.NumTypes() != g.NumTypes() {
		t.Fatalf("round trip mismatch: %v vs %v", g2, g)
	}
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		if g.Name(v) != g2.Name(v) {
			t.Fatalf("node %d name %q != %q", v, g.Name(v), g2.Name(v))
		}
		if g.Types().Name(g.Type(v)) != g2.Types().Name(g2.Type(v)) {
			t.Fatalf("node %d type mismatch", v)
		}
	}
	g.Edges(func(u, v NodeID) bool {
		if !g2.HasEdge(u, v) {
			t.Fatalf("edge (%d,%d) lost in round trip", u, v)
		}
		return true
	})
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"X 1 2\n",
		"E 1\n",
		"E a b\n",
		"N\n",
	}
	for _, c := range cases {
		if _, err := Read(bytes.NewBufferString(c)); err == nil {
			t.Fatalf("Read(%q) succeeded, want error", c)
		}
	}
}

func TestReadValueWithSpaces(t *testing.T) {
	src := "N address 123 Green St\nN user Alice\nE 0 1\n"
	g, err := Read(bytes.NewBufferString(src))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if g.Name(0) != "123 Green St" {
		t.Fatalf("value = %q, want %q", g.Name(0), "123 Green St")
	}
}

func TestStats(t *testing.T) {
	g := buildToy(t)
	s := ComputeStats(g)
	if s.Nodes != 14 || s.Edges != 18 || s.Types != 7 {
		t.Fatalf("stats = %+v", s)
	}
	if s.ByType["user"] != 5 {
		t.Fatalf("users = %d, want 5", s.ByType["user"])
	}
	if s.AvgDegree <= 0 || s.MaxDegree <= 0 {
		t.Fatalf("degenerate degree stats: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty Stats.String")
	}
}

func TestCommonNeighborsOfType(t *testing.T) {
	g := buildToy(t)
	alice := g.NodeByName("Alice")
	kate := g.NodeByName("Kate")
	hobby := g.Types().ID("hobby")
	employer := g.Types().ID("employer")
	school := g.Types().ID("school")
	if got := CommonNeighborsOfType(g, alice, kate, hobby); len(got) != 1 {
		t.Fatalf("common hobbies = %v, want 1", got)
	}
	if got := CommonNeighborsOfType(g, alice, kate, employer); len(got) != 1 {
		t.Fatalf("common employers = %v, want 1", got)
	}
	if got := CommonNeighborsOfType(g, alice, kate, school); len(got) != 0 {
		t.Fatalf("common schools = %v, want none", got)
	}
}

// Property: ShareNeighborOfType is "CommonNeighborsOfType is not empty",
// and allocates nothing.
func TestShareNeighborOfType(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 40, 120, 3)
	for u := range NodeID(g.NumNodes()) {
		for v := range NodeID(g.NumNodes()) {
			for ty := range TypeID(g.NumTypes()) {
				if got, want := ShareNeighborOfType(g, u, v, ty), len(CommonNeighborsOfType(g, u, v, ty)) > 0; got != want {
					t.Fatalf("ShareNeighborOfType(%d, %d, %d) = %v, want %v", u, v, ty, got, want)
				}
			}
		}
	}
	if a := testing.AllocsPerRun(100, func() { ShareNeighborOfType(g, 0, 1, 0) }); a != 0 {
		t.Fatalf("ShareNeighborOfType allocates %v times", a)
	}
}

// randomGraph builds a random typed graph for property tests.
func randomGraph(rng *rand.Rand, nodes, edges, types int) *Graph {
	b := NewBuilder()
	typeNames := make([]string, types)
	for i := range typeNames {
		typeNames[i] = string(rune('a' + i))
	}
	for i := 0; i < nodes; i++ {
		b.AddNode(typeNames[rng.Intn(types)], "")
	}
	for i := 0; i < edges; i++ {
		b.AddEdge(NodeID(rng.Intn(nodes)), NodeID(rng.Intn(nodes)))
	}
	return b.MustBuild()
}

// Property: adjacency is symmetric and HasEdge agrees with Neighbors.
func TestQuickAdjacencySymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(30), rng.Intn(60), 1+rng.Intn(5))
		for v := NodeID(0); int(v) < g.NumNodes(); v++ {
			for _, u := range g.Neighbors(v) {
				if !g.HasEdge(u, v) || !g.HasEdge(v, u) {
					return false
				}
				found := false
				for _, w := range g.Neighbors(u) {
					if w == v {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: degree sums to twice the edge count.
func TestQuickHandshake(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(40), rng.Intn(80), 1+rng.Intn(6))
		sum := 0
		for v := NodeID(0); int(v) < g.NumNodes(); v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: NodesOfType partitions V.
func TestQuickNodesOfTypePartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(40), rng.Intn(80), 1+rng.Intn(6))
		var all []NodeID
		for tt := TypeID(0); int(tt) < g.NumTypes(); tt++ {
			for _, v := range g.NodesOfType(tt) {
				if g.Type(v) != tt {
					return false
				}
				all = append(all, v)
			}
		}
		if len(all) != g.NumNodes() {
			return false
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		for i, v := range all {
			if NodeID(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTypeRegistry(t *testing.T) {
	r := NewTypeRegistry()
	u := r.Register("user")
	if r.Register("user") != u {
		t.Fatal("Register not idempotent")
	}
	s := r.Register("school")
	if u == s {
		t.Fatal("distinct types share an id")
	}
	if r.ID("missing") != InvalidType {
		t.Fatal("ID of missing type should be InvalidType")
	}
	if r.Name(u) != "user" {
		t.Fatalf("Name = %q", r.Name(u))
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	c := r.Clone()
	if c.ID("user") != u || c.ID("school") != s {
		t.Fatal("Clone lost ids")
	}
	c.Register("extra")
	if r.Len() != 2 {
		t.Fatal("Clone shares state with original")
	}
	want := []string{"school", "user"}
	if got := r.SortedNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedNames = %v, want %v", got, want)
	}
}

func TestGraphValidNode(t *testing.T) {
	g := buildToy(t)
	if !g.validNode(0) || g.validNode(-1) || g.validNode(NodeID(g.NumNodes())) {
		t.Fatal("validNode misbehaves")
	}
}

// TestNodeByNameLookup pins the name lookup's contract through a graph's
// whole life: the first node wins a duplicated name, "" and unknown names
// resolve to InvalidNode, and Apply extends the lookup without disturbing
// the parent's.
func TestNodeByNameLookup(t *testing.T) {
	b := NewBuilder()
	b.Types().Register("user")
	first := b.AddNode("user", "dup")
	b.AddNode("user", "")
	b.AddNode("user", "dup")
	solo := b.AddNode("user", "solo")
	g := b.MustBuild()

	check := func(g *Graph, name string, want NodeID) {
		t.Helper()
		if got := g.NodeByName(name); got != want {
			t.Fatalf("NodeByName(%q) = %d, want %d", name, got, want)
		}
	}
	check(g, "dup", first)
	check(g, "solo", solo)
	check(g, "", InvalidNode)
	check(g, "nobody", InvalidNode)

	n := NodeID(g.NumNodes())
	g1, _, err := g.Apply(Delta{Nodes: []DeltaNode{
		{Type: "user", Value: "new"}, {Type: "user", Value: "dup"}, {Type: "user", Value: ""}, {Type: "user", Value: "new"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := g1.Apply(Delta{Nodes: []DeltaNode{{Type: "user", Value: "newer"}, {Type: "user", Value: "new"}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Graph{g2, g2.WithVersion(9)} {
		check(g, "dup", first)
		check(g, "solo", solo)
		check(g, "new", n)
		check(g, "newer", n+4)
		check(g, "", InvalidNode)
		check(g, "nobody", InvalidNode)
	}
	// Older versions never see what later ones added.
	check(g, "new", InvalidNode)
	check(g1, "new", n)
	check(g1, "newer", InvalidNode)

	// A sibling applied to the same parent gives the same id another name.
	sib, _, err := g.Apply(Delta{Nodes: []DeltaNode{{Type: "user", Value: "other"}}})
	if err != nil {
		t.Fatal(err)
	}
	check(sib, "other", n)
	check(sib, "new", InvalidNode)

	// Every answer agrees with the definition: a scan for the first match.
	for _, g := range []*Graph{g, g1, g2, sib} {
		for v := NodeID(0); int(v) < g.NumNodes(); v++ {
			want := InvalidNode
			for u := NodeID(0); u <= v && g.Name(v) != ""; u++ {
				if g.Name(u) == g.Name(v) {
					want = u
					break
				}
			}
			check(g, g.Name(v), want)
		}
	}
}

// TestNodeByNameConcurrentFirstUse races the lookup's lazy build: many
// first readers of one graph and of its Apply descendants (run under
// -race).
func TestNodeByNameConcurrentFirstUse(t *testing.T) {
	b := NewBuilder()
	b.Types().Register("user")
	for i := 0; i < 64; i++ {
		b.AddNode("user", fmt.Sprintf("u%d", i))
	}
	g := b.MustBuild()
	child, _, err := g.Apply(Delta{Nodes: []DeltaNode{{Type: "user", Value: "late"}}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				gr := g
				if (w+i)%2 == 0 {
					gr = child
				}
				if got := gr.NodeByName(fmt.Sprintf("u%d", i)); got != NodeID(i) {
					t.Errorf("NodeByName(u%d) = %d", i, got)
				}
			}
			if child.NodeByName("late") != 64 || g.NodeByName("late") != InvalidNode {
				t.Error("late resolved wrongly")
			}
		}(w)
	}
	wg.Wait()
}
