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
	// recomputation with a different engine.
	g := buildAttributeGraph(t, 25, 3, 2, 5)
	const threshold = 3
	matcher := match.NewQuickSI(g)
	for _, p := range Mine(g, Options{MaxNodes: 4, MinSupport: threshold}) {
		if got := newSupporter(g, matcher).mni(p.M, threshold); got < threshold {
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
	if got := newSupporter(g, match.NewQuickSI(g)).mni(m, 10); got != 1 {
		t.Fatalf("MNI = %d, want 1", got)
	}
	// A pattern with no matches at all.
	m2 := metagraph.MustNew(
		[]graph.TypeID{g.Types().ID("school"), g.Types().ID("school")},
		[]metagraph.Edge{{U: 0, V: 1}})
	if got := newSupporter(g, match.NewQuickSI(g)).mni(m2, 10); got != 0 {
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

// mapMNI is the straightforward MNI reference the dense counters replace:
// one set of images per pattern node, enumeration stopped once every set
// has enough members.
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

// TestDenseMNIEqualsMapReference checks the dense, saturating counters
// against mapMNI on random small typed graphs, for thresholds below, at
// and above the true support. One supporter is reused throughout, so stale
// scratch from a previous pattern would show.
func TestDenseMNIEqualsMapReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := buildAttributeGraph(t, 5+rng.Intn(25), 1+rng.Intn(4), 1+rng.Intn(4), seed)
		sup := newSupporter(g, match.NewSymISO(g))
		ref := match.NewQuickSI(g)
		for _, p := range mine(g, Options{MaxNodes: 4, MinSupport: 1}, 1) {
			for _, enough := range []int{1, 2, 3, 5, 8, 1000} {
				if got, want := sup.mni(p.M, enough), mapMNI(ref, p.M, enough); got != want {
					t.Fatalf("seed %d %v enough=%d: dense %d, map %d", seed, p.M, enough, got, want)
				}
			}
		}
	}
}
