package mining

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metagraph"
)

// buildAttributeGraph plants a small attribute graph: users attached to
// shared schools and hobbies, so that user–school–user and
// user–hobby–user patterns (and their joins) are frequent.
func buildAttributeGraph(t testing.TB, users, schools, hobbies int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	b.Types().Register("user")
	b.Types().Register("school")
	b.Types().Register("hobby")
	us := make([]graph.NodeID, users)
	for i := range us {
		us[i] = b.AddNode("user", fmt.Sprintf("u%d", i))
	}
	ss := make([]graph.NodeID, schools)
	for i := range ss {
		ss[i] = b.AddNode("school", fmt.Sprintf("s%d", i))
	}
	hs := make([]graph.NodeID, hobbies)
	for i := range hs {
		hs[i] = b.AddNode("hobby", fmt.Sprintf("h%d", i))
	}
	for _, u := range us {
		b.AddEdge(u, ss[rng.Intn(schools)])
		b.AddEdge(u, hs[rng.Intn(hobbies)])
		if rng.Intn(2) == 0 {
			b.AddEdge(u, hs[rng.Intn(hobbies)])
		}
	}
	return b.MustBuild()
}

func TestMineFindsMetapath(t *testing.T) {
	g := buildAttributeGraph(t, 30, 3, 3, 1)
	pats := Mine(g, Options{MaxNodes: 3, MinSupport: 2})
	if len(pats) == 0 {
		t.Fatal("no patterns mined")
	}
	// user–school–user must be among them.
	tUser := g.Types().ID("user")
	tSchool := g.Types().ID("school")
	want := metagraph.MustNew([]graph.TypeID{tUser, tSchool, tUser},
		[]metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	found := false
	for _, p := range pats {
		if metagraph.Isomorphic(p.M, want) {
			found = true
			if p.Support < 2 {
				t.Fatalf("support %d < threshold", p.Support)
			}
		}
	}
	if !found {
		t.Fatal("user–school–user not mined")
	}
}

func TestMineDeduplicates(t *testing.T) {
	g := buildAttributeGraph(t, 20, 2, 2, 2)
	pats := Mine(g, Options{MaxNodes: 4, MinSupport: 2})
	seen := make(map[string]bool)
	for _, p := range pats {
		key := p.M.Canonical()
		if seen[key] {
			t.Fatalf("duplicate pattern %v", p.M)
		}
		seen[key] = true
	}
}

func TestMineRespectsMaxNodes(t *testing.T) {
	g := buildAttributeGraph(t, 20, 2, 2, 3)
	for _, maxN := range []int{2, 3, 4} {
		for _, p := range Mine(g, Options{MaxNodes: maxN, MinSupport: 2}) {
			if p.M.N() > maxN {
				t.Fatalf("pattern %v exceeds MaxNodes=%d", p.M, maxN)
			}
		}
	}
}

func TestMineSupportThreshold(t *testing.T) {
	g := buildAttributeGraph(t, 30, 3, 3, 4)
	lo := Mine(g, Options{MaxNodes: 3, MinSupport: 2})
	hi := Mine(g, Options{MaxNodes: 3, MinSupport: 15})
	if len(hi) > len(lo) {
		t.Fatalf("higher threshold mined more patterns (%d > %d)", len(hi), len(lo))
	}
	for _, p := range hi {
		if p.Support < 15 {
			t.Fatalf("pattern %v has support %d < 15", p.M, p.Support)
		}
	}
}

func TestMineAntiMonotonicity(t *testing.T) {
	// Every frequent pattern's MNI support must be >= threshold by direct
	// recomputation over every assignment, not one witness per instance.
	g := buildAttributeGraph(t, 25, 3, 2, 5)
	const threshold = 3
	matcher := match.NewSymISO(g)
	for _, p := range Mine(g, Options{MaxNodes: 4, MinSupport: threshold}) {
		if got := mapMNI(matcher, p.M, threshold); got < threshold {
			t.Fatalf("pattern %v reported frequent but MNI=%d", p.M, got)
		}
	}
}

func TestMineMaxPatterns(t *testing.T) {
	g := buildAttributeGraph(t, 30, 3, 3, 6)
	pats := Mine(g, Options{MaxNodes: 4, MinSupport: 2, MaxPatterns: 5})
	if len(pats) != 5 {
		t.Fatalf("MaxPatterns ignored: %d", len(pats))
	}
}

func TestProximityFilter(t *testing.T) {
	g := buildAttributeGraph(t, 30, 3, 3, 7)
	tUser := g.Types().ID("user")
	pats := Mine(g, Options{MaxNodes: 4, MinSupport: 2})
	filtered := ProximityFilter(pats, tUser)
	if len(filtered) == 0 {
		t.Fatal("filter removed everything")
	}
	if len(filtered) >= len(pats) {
		t.Fatalf("filter removed nothing (%d of %d)", len(filtered), len(pats))
	}
	for _, p := range filtered {
		if p.M.CountType(tUser) < 2 {
			t.Fatalf("pattern %v lacks two users", p.M)
		}
		if p.M.CountType(tUser) == p.M.N() {
			t.Fatalf("pattern %v has no attribute node", p.M)
		}
		if len(p.M.AnchorPairs(tUser)) == 0 {
			t.Fatalf("pattern %v lacks a symmetric user pair", p.M)
		}
	}
}

func TestCountPathsAndMetagraphs(t *testing.T) {
	g := buildAttributeGraph(t, 30, 3, 3, 8)
	pats := Mine(g, Options{MaxNodes: 4, MinSupport: 2})
	if n := CountPaths(pats); n == 0 || n > len(pats) {
		t.Fatalf("CountPaths = %d of %d", n, len(pats))
	}
	ms := Metagraphs(pats)
	if len(ms) != len(pats) {
		t.Fatal("Metagraphs length mismatch")
	}
}

func TestMniSupportExactOnToy(t *testing.T) {
	// Two users share one school: user–school–user has MNI 2 (users) and 1
	// (school) -> support 1.
	b := graph.NewBuilder()
	u1 := b.AddNode("user", "u1")
	u2 := b.AddNode("user", "u2")
	s := b.AddNode("school", "s")
	b.AddEdge(u1, s)
	b.AddEdge(u2, s)
	g := b.MustBuild()
	m := metagraph.MustNew(
		[]graph.TypeID{g.Types().ID("user"), g.Types().ID("school"), g.Types().ID("user")},
		[]metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if got := newSupporter(g, match.NewSymISO(g)).mni(m, 10); got != 1 {
		t.Fatalf("MNI = %d, want 1", got)
	}
	// A pattern with no matches at all.
	m2 := metagraph.MustNew(
		[]graph.TypeID{g.Types().ID("school"), g.Types().ID("school")},
		[]metagraph.Edge{{U: 0, V: 1}})
	if got := newSupporter(g, match.NewSymISO(g)).mni(m2, 10); got != 0 {
		t.Fatalf("MNI = %d, want 0", got)
	}
}

func TestMineDeterministic(t *testing.T) {
	g := buildAttributeGraph(t, 25, 3, 3, 9)
	a := Mine(g, Options{MaxNodes: 4, MinSupport: 2})
	b := Mine(g, Options{MaxNodes: 4, MinSupport: 2})
	if len(a) != len(b) {
		t.Fatalf("non-deterministic count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].M.Canonical() != b[i].M.Canonical() {
			t.Fatalf("non-deterministic order at %d", i)
		}
	}
}

// samePatterns fails unless a and b list the same canonical keys with the
// same supports in the same order.
func samePatterns(t *testing.T, label string, a, b []Pattern) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d patterns vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].M.Canonical() != b[i].M.Canonical() || a[i].Support != b[i].Support {
			t.Fatalf("%s: pattern %d is %v/%d vs %v/%d", label, i,
				a[i].M, a[i].Support, b[i].M, b[i].Support)
		}
	}
}

// TestParallelMineEqualsSerial pins the level-parallel search to the
// serial one: the frequent list, its order, the supports and the
// MaxPatterns cut do not depend on the worker count.
func TestParallelMineEqualsSerial(t *testing.T) {
	check := func(label string, g *graph.Graph, o Options) {
		t.Helper()
		serial := mine(g, o, 1)
		if len(serial) == 0 {
			t.Fatalf("%s %+v: nothing mined", label, o)
		}
		for _, w := range []int{2, 8} {
			samePatterns(t, fmt.Sprintf("%s %+v workers=%d", label, o, w), serial, mine(g, o, w))
		}
	}
	// Below ~200 users a LinkedIn attribute type has fewer than five
	// nodes, so MinSupport 5 would mine nothing.
	for _, c := range []struct {
		users int
		seed  int64
	}{{200, 1}, {200, 2}, {200, 3}, {400, 4}} {
		g := dataset.LinkedIn(dataset.Config{Users: c.users, Seed: c.seed, NoiseRate: 0.05}).G
		for _, o := range []Options{
			{MaxNodes: 3, MinSupport: 5},
			{MaxNodes: 4, MinSupport: 5},
			{MaxNodes: 4, MinSupport: 5, MaxPatterns: 7},
			{MaxNodes: 4, MinSupport: 5, MaxPatterns: 20},
		} {
			check(fmt.Sprintf("linkedin users=%d seed=%d", c.users, c.seed), g, o)
		}
	}
	// LinkedIn's 5-node level takes seconds per run (minutes under -race),
	// so MaxNodes 5 runs on the smaller attribute graphs.
	for seed := int64(1); seed <= 4; seed++ {
		g := buildAttributeGraph(t, 60, 4, 5, seed)
		for _, o := range []Options{
			{MaxNodes: 5, MinSupport: 3},
			{MaxNodes: 5, MinSupport: 3, MaxPatterns: 8},
		} {
			check(fmt.Sprintf("attribute seed=%d", seed), g, o)
		}
	}
}

// mapMNI is the straightforward MNI reference the orbit counters replace:
// one set of images per pattern node, filled from every assignment of
// matcher's Match, enumeration stopped once every set has enough members.
func mapMNI(matcher match.Matcher, m *metagraph.Metagraph, enough int) int {
	images := make([]map[graph.NodeID]bool, m.N())
	for i := range images {
		images[i] = make(map[graph.NodeID]bool)
	}
	matcher.Match(m, func(a []graph.NodeID) bool {
		done := true
		for i, v := range a {
			images[i][v] = true
			if len(images[i]) < enough {
				done = false
			}
		}
		return !done
	})
	mni := len(images[0])
	for _, s := range images[1:] {
		mni = min(mni, len(s))
	}
	return mni
}

// denseGraph draws a graph over types a and b dense enough that stars,
// cliques and cycles have many instances.
func denseGraph(rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder()
	b.Types().Register("a")
	b.Types().Register("b")
	n := 12 + rng.Intn(10)
	for i := 0; i < n; i++ {
		b.AddNode([]string{"a", "b"}[rng.Intn(2)], "")
	}
	for i := 3 * n; i > 0; i-- {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return b.MustBuild()
}

// denseShapes are metagraphs over denseGraph's types a=0 and b=1 whose
// orbits the mined attribute patterns do not reach: stars of two to four
// leaves, whose leaves SymISO reports as a set; one-type cliques of three
// and four nodes, one orbit each; a 4-cycle over two types; and an
// asymmetric path, every orbit a single node.
func denseShapes() []*metagraph.Metagraph {
	type E = metagraph.Edge
	return []*metagraph.Metagraph{
		metagraph.MustNew([]graph.TypeID{0, 1, 1}, []E{{U: 0, V: 1}, {U: 0, V: 2}}),
		metagraph.MustNew([]graph.TypeID{0, 1, 1, 1}, []E{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}}),
		metagraph.MustNew([]graph.TypeID{1, 0, 0, 0, 0}, []E{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}}),
		metagraph.MustNew([]graph.TypeID{0, 1, 1, 1}, []E{{U: 0, V: 1}, {U: 1, V: 2}, {U: 1, V: 3}}),
		metagraph.MustNew([]graph.TypeID{0, 0, 0}, []E{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}}),
		metagraph.MustNew([]graph.TypeID{1, 1, 1, 1}, []E{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}}),
		metagraph.MustNew([]graph.TypeID{0, 0, 1, 1}, []E{{U: 0, V: 2}, {U: 1, V: 2}, {U: 0, V: 3}, {U: 1, V: 3}}),
		metagraph.MustNew([]graph.TypeID{0, 1, 1, 0}, []E{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 0, V: 2}}),
	}
}

// chiralGraph plants 9-cycles typed a, b, c around, sharing nodes, plus
// random edges: the instances of chiralCycle.
func chiralGraph(rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder()
	names := []string{"a", "b", "c"}
	var byType [3][]graph.NodeID
	for i := 0; i < 36; i++ {
		byType[i%3] = append(byType[i%3], b.AddNode(names[i%3], ""))
	}
	for c := 0; c < 6; c++ {
		var cycle [9]graph.NodeID
		for i := range cycle {
			cycle[i] = byType[i%3][rng.Intn(len(byType[i%3]))]
		}
		for i := range cycle {
			b.AddEdge(cycle[i], cycle[(i+1)%9])
		}
	}
	for i := 0; i < 30; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(36)), graph.NodeID(rng.Intn(36)))
	}
	return b.MustBuild()
}

// chiralCycle is the 9-cycle typed a, b, c around. Its automorphisms are
// the rotations by three, none an involution: three orbits of three nodes
// each, which SymISO places one node at a time under the conditions.
func chiralCycle() *metagraph.Metagraph {
	types := make([]graph.TypeID, 9)
	var edges []metagraph.Edge
	for i := range types {
		types[i] = graph.TypeID(i % 3)
		edges = append(edges, metagraph.Edge{U: min(i, (i+1)%9), V: max(i, (i+1)%9)})
	}
	return metagraph.MustNew(types, edges)
}

// TestDenseMNIEqualsMapReference checks the orbit counters, filled from
// one witness or set per instance, against mapMNI over every assignment,
// for thresholds below, at and above the true support: on random small
// attribute graphs for every pattern mined there, on dense two-type graphs
// for stars, cliques, a 4-cycle and an asymmetric path, and on planted
// 9-cycles for the chiral one. One supporter is reused per graph, so stale
// scratch from a previous pattern would show.
func TestDenseMNIEqualsMapReference(t *testing.T) {
	check := func(label string, g *graph.Graph, ms []*metagraph.Metagraph) {
		t.Helper()
		sup := newSupporter(g, match.NewSymISO(g))
		ref := match.NewSymISO(g)
		for _, m := range ms {
			for _, enough := range []int{1, 2, 3, 5, 8, 1000} {
				if got, want := sup.mni(m, enough), mapMNI(ref, m, enough); got != want {
					t.Fatalf("%s %v enough=%d: orbits %d, every assignment %d", label, m, enough, got, want)
				}
			}
		}
	}
	var sets bool
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := buildAttributeGraph(t, 5+rng.Intn(25), 1+rng.Intn(4), 1+rng.Intn(4), seed)
		check(fmt.Sprint("attribute seed ", seed), g, Metagraphs(mine(g, Options{MaxNodes: 4, MinSupport: 1}, 1)))
		g = denseGraph(rng)
		check(fmt.Sprint("dense seed ", seed), g, denseShapes())
		for _, m := range denseShapes()[:3] {
			match.InstanceSets(match.NewSymISO(g), m, func(s match.Set) bool {
				sets = sets || len(s.F) > len(s.P) && len(s.P) > 0
				return true
			})
		}
		if seed%5 == 0 {
			check(fmt.Sprint("chiral seed ", seed), chiralGraph(rng), []*metagraph.Metagraph{chiralCycle()})
		}
	}
	if !sets {
		t.Fatal("no star was reported as a set with more candidates than leaves")
	}
}
