package index

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metagraph"
)

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
// RematchDelta and compacting yields byte-identical serialization to a
// from-scratch match of the post-delta graph — for every metagraph.
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
			before := matchOne(m, mk(g))
			patch := RematchDelta(ng, m, mk, touched)
			patched := before.WithPatch(patch)
			scratch := matchOne(m, mk(ng.Compact()))

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
			// Reads through the overlay agree with the scratch build too.
			for v := graph.NodeID(0); int(v) < ng.NumNodes(); v++ {
				a, b := patched.NodeVec(v), scratch.NodeVec(v)
				if len(a) != len(b) {
					t.Fatalf("trial %d: NodeVec(%d) mismatch", trial, v)
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("trial %d: NodeVec(%d)[%d] = %v, want %v", trial, v, i, a[i], b[i])
					}
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
	base := NewPatch(1, nil, nil)
	if !base.Empty() {
		t.Fatal("nil rows should be empty")
	}
	b := NewBuilder(1)
	ix := b.Build()
	if ix.WithPatch(base) != ix {
		t.Fatal("empty patch must return the receiver")
	}
	p := NewPatch(1, map[graph.NodeID][]Entry{3: {{Meta: 0, Count: 2}}},
		map[PairKey][]Entry{MakePairKey(1, 3): {{Meta: 0, Count: 1}}})
	patched := ix.WithPatch(p)
	if !patched.Pending() || ix.Pending() {
		t.Fatal("pending state wrong")
	}
	if got := patched.NodeVec(3).Get(0); got != 2 {
		t.Fatalf("overlay NodeVec = %v", got)
	}
	if got := patched.PairVec(1, 3).Get(0); got != 1 {
		t.Fatalf("overlay PairVec = %v", got)
	}
	// Second patch shadows the first on overlapping keys.
	p2 := NewPatch(1, map[graph.NodeID][]Entry{3: {{Meta: 0, Count: 5}}}, nil)
	patched2 := patched.WithPatch(p2)
	if got := patched2.NodeVec(3).Get(0); got != 5 {
		t.Fatalf("re-patched NodeVec = %v", got)
	}
	if got := patched2.PairVec(1, 3).Get(0); got != 1 {
		t.Fatalf("re-patched PairVec lost earlier overlay row: %v", got)
	}
	c := patched2.Compact()
	if c.Pending() {
		t.Fatal("compacted index still pending")
	}
	if got := c.NodeVec(3).Get(0); got != 5 {
		t.Fatalf("compacted NodeVec = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("numMeta mismatch must panic")
		}
	}()
	ix.WithPatch(NewPatch(2, map[graph.NodeID][]Entry{1: {{Meta: 0, Count: 1}}}, nil))
}
