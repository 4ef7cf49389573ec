package index

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metagraph"
)

// handPatch freezes hand-written gains into a Patch for an index spanning
// numMeta metagraphs, dropping empty rows (a key that gains nothing is not
// in a patch). The engine only ever applies what RematchDelta enumerated;
// tests need gains of their own choosing.
func handPatch(numMeta int, mx map[graph.NodeID][]Entry, mxy map[PairKey][]Entry) *Patch {
	for k, row := range mx {
		if len(row) == 0 {
			delete(mx, k)
		}
	}
	for k, row := range mxy {
		if len(row) == 0 {
			delete(mxy, k)
		}
	}
	return &Patch{numMeta: numMeta, mx: tableOf(mx), mxy: tableOf(mxy)}
}

// mustPatch is ix.WithPatch(p) for gains that cannot overflow.
func mustPatch(t testing.TB, ix *Index, p *Patch) *Index {
	t.Helper()
	out, err := ix.WithPatch(p)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// matchPart is the single-metagraph part index of m, counted with a
// scratch of its own.
func matchPart(m *metagraph.Metagraph, matcher match.Matcher) *Index {
	return (&counter{}).part(m, matcher)
}

// tableOf freezes map rows into a table: keys ascending, each row sorted by
// Meta. Rows must not repeat a Meta.
func tableOf[K cmp.Ordered](rows map[K][]Entry) csr[K] {
	if len(rows) == 0 {
		return csr[K]{}
	}
	c := csr[K]{keys: slices.Sorted(maps.Keys(rows)), off: []int32{0}}
	for _, k := range c.keys {
		c.ent = append(c.ent, rows[k]...)
		slices.SortFunc(c.ent[c.off[len(c.off)-1]:], compareEntryMeta)
		c.off = append(c.off, int32(len(c.ent)))
	}
	return c
}

// randTyped builds a random user/attr graph plus a fresh delta against it.
func randTyped(rng *rand.Rand) (*graph.Graph, graph.Delta) {
	b := graph.NewBuilder()
	for _, n := range []string{"user", "school", "hobby"} {
		b.Types().Register(n)
	}
	nu, ns, nh := 6+rng.Intn(8), 3+rng.Intn(4), 3+rng.Intn(4)
	var ids []graph.NodeID
	for i := 0; i < nu; i++ {
		ids = append(ids, b.AddNode("user", ""))
	}
	for i := 0; i < ns; i++ {
		ids = append(ids, b.AddNode("school", ""))
	}
	for i := 0; i < nh; i++ {
		ids = append(ids, b.AddNode("hobby", ""))
	}
	for i := 0; i < nu; i++ {
		for j := 0; j < 2; j++ {
			b.AddEdge(ids[i], ids[nu+rng.Intn(ns+nh)])
		}
	}
	g := b.MustBuild()
	return g, randDelta(rng, g)
}

// randDelta draws a fresh delta against g: up to one new user and a few
// random edges over the old and new nodes.
func randDelta(rng *rand.Rand, g *graph.Graph) graph.Delta {
	var d graph.Delta
	for i := rng.Intn(2); i > 0; i-- {
		d.Nodes = append(d.Nodes, graph.DeltaNode{Type: "user", Value: ""})
	}
	total := g.NumNodes() + len(d.Nodes)
	for i := 1 + rng.Intn(4); i > 0; i-- {
		d.Edges = append(d.Edges, graph.Edge{U: graph.NodeID(rng.Intn(total)), V: graph.NodeID(rng.Intn(total))})
	}
	return d
}

// patchMetagraphs are the patterns the patch property test re-matches: a
// symmetric metapath and a symmetric triangle-ish pattern over the types
// of randTyped (user=0, school=1, hobby=2).
func patchMetagraphs() []*metagraph.Metagraph {
	return []*metagraph.Metagraph{
		metagraph.MustNew([]graph.TypeID{0, 1, 0}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}),
		metagraph.MustNew([]graph.TypeID{0, 2, 0}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}),
		metagraph.MustNew([]graph.TypeID{0, 1, 0, 2}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 3}, {U: 2, V: 3}}),
	}
}

// TestQuickPatchEqualsScratch is the incremental-indexing property: for
// random graphs and deltas, patching the pre-delta part index with
// RematchDelta yields byte-identical serialization to a from-scratch match
// of the post-delta graph — for every metagraph.
func TestQuickPatchEqualsScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mk := func(g *graph.Graph) match.Matcher { return match.NewSymISO(g) }
	for trial := 0; trial < 40; trial++ {
		g, d := randTyped(rng)
		ng, touched, err := g.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		for mi, m := range patchMetagraphs() {
			before := matchPart(m, mk(g))
			patch := RematchDelta(ng, m, mk, touched)
			patched := mustPatch(t, before, patch)
			scratch := matchPart(m, mk(ng))

			var got, want bytes.Buffer
			if err := Write(&got, patched); err != nil {
				t.Fatal(err)
			}
			if err := Write(&want, scratch); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("trial %d metagraph %d: patched index differs from scratch build (touched %v)", trial, mi, touched)
			}
			// Reads agree with the scratch build too.
			for v := graph.NodeID(0); int(v) < ng.NumNodes(); v++ {
				if a, b := patched.NodeVec(v), scratch.NodeVec(v); !sameRow(a, b) {
					t.Fatalf("trial %d: NodeVec(%d) = %v, want %v", trial, v, a, b)
				}
				pa, pb := patched.Partners(v), scratch.Partners(v)
				if len(pa) != len(pb) {
					t.Fatalf("trial %d: Partners(%d) mismatch", trial, v)
				}
				for i := range pa {
					if pa[i] != pb[i] {
						t.Fatalf("trial %d: Partners(%d)[%d]", trial, v, i)
					}
				}
			}
			if patched.NumPairs() != scratch.NumPairs() {
				t.Fatalf("trial %d: NumPairs %d want %d", trial, patched.NumPairs(), scratch.NumPairs())
			}
		}
	}
}

func TestWithPatchBasics(t *testing.T) {
	base := handPatch(1, nil, nil)
	if !base.Empty() {
		t.Fatal("nil rows should be empty")
	}
	b := NewBuilder(1)
	ix := b.Build()
	if mustPatch(t, ix, base) != ix {
		t.Fatal("empty patch must return the receiver")
	}
	p := handPatch(1, map[graph.NodeID][]Entry{3: {{Meta: 0, Count: 2}}},
		map[PairKey][]Entry{MakePairKey(1, 3): {{Meta: 0, Count: 1}}})
	patched := mustPatch(t, ix, p)
	if ix.NodeVec(3).Len() != 0 || ix.PairVec(1, 3).Len() != 0 {
		t.Fatal("WithPatch changed the receiver")
	}
	if got := patched.NodeVec(3).Get(0); got != 2 {
		t.Fatalf("patched NodeVec = %v", got)
	}
	if got := patched.PairVec(1, 3).Get(0); got != 1 {
		t.Fatalf("patched PairVec = %v", got)
	}
	// A second patch adds to the first on overlapping keys: 2 + 5.
	p2 := handPatch(1, map[graph.NodeID][]Entry{3: {{Meta: 0, Count: 5}}}, nil)
	patched2 := mustPatch(t, patched, p2)
	if got := patched2.NodeVec(3).Get(0); got != 7 {
		t.Fatalf("re-patched NodeVec = %v, want 2 + 5", got)
	}
	if got := patched2.PairVec(1, 3).Get(0); got != 1 {
		t.Fatalf("re-patched PairVec lost the earlier patch's row: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("numMeta mismatch must panic")
		}
	}()
	ix.WithPatch(handPatch(2, map[graph.NodeID][]Entry{1: {{Meta: 0, Count: 1}}}, nil))
}

// TestCountOverflowIsRefused: a count past 2^32-1 never wraps. Gains that
// would carry a stored count past it — of a node row or of a pair, the two
// halves WithPatch adds — are refused with an error naming the metagraph
// and key, and the receiver is unchanged; gains that reach it exactly land.
// An offline build whose run of one key is longer panics, naming the
// metagraph and key.
func TestCountOverflowIsRefused(t *testing.T) {
	base := mustPatch(t, NewBuilder(2).Build(), handPatch(2,
		map[graph.NodeID][]Entry{3: {{Meta: 1, Count: math.MaxUint32 - 5}}},
		map[PairKey][]Entry{MakePairKey(3, 7): {{Meta: 1, Count: 9}}}))
	was := writeBytes(t, base)
	gains := func(node, pair uint32) *Patch {
		return handPatch(2, map[graph.NodeID][]Entry{3: {{Meta: 0, Count: 1}, {Meta: 1, Count: node}}},
			map[PairKey][]Entry{MakePairKey(3, 7): {{Meta: 1, Count: pair}}})
	}
	got := mustPatch(t, base, gains(5, math.MaxUint32-9))
	if m := got.NodeVec(3); m.Get(1) != math.MaxUint32 || m.Get(0) != 1 {
		t.Fatalf("m_3 = %v after gains reaching 2^32-1", m)
	}
	if m := got.PairVec(7, 3); m.Get(1) != math.MaxUint32 {
		t.Fatalf("m_37 = %v after gains reaching 2^32-1", m)
	}
	for _, c := range []struct {
		what, want string
		gains      *Patch
	}{
		{"a node gain past 2^32-1", "metagraph 1, key 3:", gains(6, 1)},
		{"a pair gain past 2^32-1", "metagraph 1, key (3,7):", gains(1, math.MaxUint32-8)},
	} {
		if ix, err := base.WithPatch(c.gains); ix != nil || err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: WithPatch returned %v, %v; want an error naming %q", c.what, ix, err, c.want)
		}
		if !bytes.Equal(writeBytes(t, base), was) || base.PairVec(3, 7).Get(1) != 9 {
			t.Fatalf("%s: the refusal changed the receiver", c.what)
		}
	}

	mustPanic(t, "a run of 2^32 instances", "metagraph 1, key (2,4):", func() {
		new(csr[PairKey]).appendRun(MakePairKey(2, 4), 1, math.MaxUint32+1)
	})
}

// mustPanic runs fn and requires a panic whose message contains want.
func mustPanic(t *testing.T, what, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Fatalf("%s: recovered %v, want a panic naming %q", what, r, want)
		}
	}()
	fn()
}

// hubGraph builds users around one school every user attends and a few
// small hobbies: the shape on which a hop-bounded neighbourhood of any
// edge is the whole graph.
func hubGraph(rng *rand.Rand, users int) (g *graph.Graph, userIDs []graph.NodeID, school graph.NodeID, hobbies []graph.NodeID) {
	b := graph.NewBuilder()
	for _, n := range []string{"user", "school", "hobby"} {
		b.Types().Register(n)
	}
	for i := 0; i < users; i++ {
		userIDs = append(userIDs, b.AddNode("user", ""))
	}
	school = b.AddNode("school", "")
	for i := 0; i < 4; i++ {
		hobbies = append(hobbies, b.AddNode("hobby", ""))
	}
	for _, u := range userIDs {
		b.AddEdge(u, school)
		b.AddEdge(u, hobbies[rng.Intn(len(hobbies))])
	}
	return b.MustBuild(), userIDs, school, hobbies
}

// TestPatchOnHubEqualsScratch runs the incremental-indexing property on
// the two shapes the random trials rarely draw: a delta edge on the
// highest-degree node, and instances that contain two delta edges (a new
// user joining the hub and a hobby in one delta; two new users meeting at
// a hobby) — through two successive patches.
func TestPatchOnHubEqualsScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mk := func(g *graph.Graph) match.Matcher { return match.NewSymISO(g) }
	g0, users, school, hobbies := hubGraph(rng, 40)
	n := graph.NodeID(g0.NumNodes())
	user := graph.DeltaNode{Type: "user"}
	d1 := graph.Delta{Nodes: []graph.DeltaNode{user}, Edges: []graph.Edge{{U: n, V: school}, {U: n, V: hobbies[0]}}}
	d2 := graph.Delta{
		Nodes: []graph.DeltaNode{user, user},
		Edges: []graph.Edge{{U: n + 1, V: hobbies[1]}, {U: n + 2, V: hobbies[1]}, {U: n + 2, V: school}, {U: users[0], V: hobbies[1]}, {U: school, V: n + 1}},
	}
	g1, _, err := g0.Apply(d1)
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := g1.Apply(d2)
	if err != nil {
		t.Fatal(err)
	}
	for mi, m := range patchMetagraphs() {
		p1, p2 := RematchDelta(g1, m, nil, nil), RematchDelta(g2, m, nil, nil)
		if p1.Empty() || p2.Empty() {
			t.Fatalf("metagraph %d: a hub delta gained nothing", mi)
		}
		patched := mustPatch(t, mustPatch(t, matchPart(m, mk(g0)), p1), p2)
		var want bytes.Buffer
		if err := Write(&want, matchPart(m, mk(g2))); err != nil {
			t.Fatal(err)
		}
		for label, ix := range map[string]*Index{"patched": patched} {
			var got bytes.Buffer
			if err := Write(&got, ix); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("metagraph %d: %s index differs from the scratch build", mi, label)
			}
		}
	}
}

// TestRematchWorkIsLocal asserts what the pinned enumeration is for: the
// assignments one delta makes it visit are the same on G and on G next to
// a disjoint second copy of G — the work follows the degrees around the new
// edges, not the size of the graph. (The hop-bounded re-match this replaced
// visited the whole hub graph for the same delta.) So are its allocations,
// objects and bytes, on G and on G next to 63 disjoint copies of it: a
// scratch sized to the graph would differ by kilobytes there.
func TestRematchWorkIsLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, users, school, hobbies := hubGraph(rng, 60)

	// twice = G followed by a copy of G shifted by |V|.
	b := graph.NewBuilder()
	for _, n := range g.Types().Names() {
		b.Types().Register(n)
	}
	for copyNo := 0; copyNo < 2; copyNo++ {
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			b.AddNode(g.Types().Name(g.Type(v)), "")
		}
	}
	shift := graph.NodeID(g.NumNodes())
	g.Edges(func(u, v graph.NodeID) bool {
		b.AddEdge(u, v)
		b.AddEdge(u+shift, v+shift)
		return true
	})
	twice := b.MustBuild()

	// One new user on the hub and a hobby, one old user gaining a hobby.
	second := hobbies[0]
	if g.HasEdge(users[7], second) {
		second = hobbies[1]
	}
	delta := func(on *graph.Graph) graph.Delta {
		n := graph.NodeID(on.NumNodes())
		return graph.Delta{
			Nodes: []graph.DeltaNode{{Type: "user"}},
			Edges: []graph.Edge{{U: n, V: school}, {U: n, V: hobbies[2]}, {U: users[7], V: second}},
		}
	}
	ng, _, err := g.Apply(delta(g))
	if err != nil {
		t.Fatal(err)
	}
	ntwice, _, err := twice.Apply(delta(twice))
	if err != nil {
		t.Fatal(err)
	}
	for mi, m := range patchMetagraphs() {
		small, big := RematchDelta(ng, m, nil, nil), RematchDelta(ntwice, m, nil, nil)
		if small.Enumerated() == 0 {
			t.Fatalf("metagraph %d: nothing enumerated", mi)
		}
		if small.Enumerated() != big.Enumerated() {
			t.Fatalf("metagraph %d: %d assignments visited on G, %d on G plus a disjoint copy", mi, small.Enumerated(), big.Enumerated())
		}
		if len(small.mxy.keys) != len(big.mxy.keys) || len(small.NodeKeys()) != len(big.NodeKeys()) {
			t.Fatalf("metagraph %d: gains differ between G and its doubling", mi)
		}
	}

	if raceEnabled {
		return // sync.Pool drops the pooled counter at random under -race
	}
	many := disjointCopies(g, 64)
	nmany, _, err := many.Apply(delta(many))
	if err != nil {
		t.Fatal(err)
	}
	for mi, m := range patchMetagraphs() {
		objects, bytes := rematchAllocs(ng, m)
		manyObjects, manyBytes := rematchAllocs(nmany, m)
		if objects != manyObjects || max(bytes-manyBytes, manyBytes-bytes) > 1024 {
			t.Fatalf("metagraph %d: RematchDelta allocates %v objects, %d bytes on G and %v, %d on G plus 63 disjoint copies",
				mi, objects, bytes, manyObjects, manyBytes)
		}
	}
}

// disjointCopies returns the graph of n disjoint copies of g, copy k's
// node ids shifted by k·|V|.
func disjointCopies(g *graph.Graph, n int) *graph.Graph {
	b := graph.NewBuilder()
	for _, name := range g.Types().Names() {
		b.Types().Register(name)
	}
	for range n {
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			b.AddNode(g.Types().Name(g.Type(v)), "")
		}
	}
	g.Edges(func(u, v graph.NodeID) bool {
		for k := range graph.NodeID(n) {
			shift := k * graph.NodeID(g.NumNodes())
			b.AddEdge(u+shift, v+shift)
		}
		return true
	})
	return b.MustBuild()
}

// rematchAllocs returns the objects and the bytes one RematchDelta of m on
// g allocates, each averaged over runs after a warm-up one, on one P so
// that the pooled counter is the one reused.
func rematchAllocs(g *graph.Graph, m *metagraph.Metagraph) (objects float64, bytes int64) {
	const runs = 20
	rematch := func() { RematchDelta(g, m, nil, nil) }
	objects = testing.AllocsPerRun(runs, rematch)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		rematch()
	}
	runtime.ReadMemStats(&after)
	return objects, int64(after.TotalAlloc-before.TotalAlloc) / runs
}
