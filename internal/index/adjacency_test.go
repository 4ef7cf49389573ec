package index

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/match"
)

// checkAdjacency compares the adjacency of got with want's slot for slot —
// same partners in the same order, and behind every slot the same pair row
// and the same node row — and (scanEverything) each slot of got, its query
// rows and its denominators with the by-key reads they replace. The two may
// hold a row inline, in a table or in an overlay; what a slot resolves to is
// what must agree.
func checkAdjacency(t *testing.T, label string, got, want *Index, numNodes int) {
	t.Helper()
	for v := graph.NodeID(-1); int(v) < numNodes+2; v++ {
		cg, cw := got.Candidates(v), want.Candidates(v)
		if !slices.Equal(cg.Nodes, cw.Nodes) {
			t.Fatalf("%s: partners of %d = %v, want %v", label, v, cg.Nodes, cw.Nodes)
		}
		for i, u := range cg.Nodes {
			if !sameRow(cg.PairVec(i), cw.PairVec(i)) {
				t.Fatalf("%s: slot %d of node %d (pair with %d) resolves to %v; from scratch %v",
					label, i, v, u, cg.PairVec(i), cw.PairVec(i))
			}
			if !sameRow(cg.NodeVec(i), cw.NodeVec(i)) {
				t.Fatalf("%s: slot %d of node %d: m_%d resolves to %v; from scratch %v",
					label, i, v, u, cg.NodeVec(i), cw.NodeVec(i))
			}
		}
	}
	scanEverything(t, got, numNodes+1)
}

// TestQuickAdjacencyCarriedEqualsScratch is the property behind "no reader
// ever builds": the adjacency WithPatch carries across two successive
// (and, on graphs this small, overlapping) patches, the one an unfinished
// index builds on first use, and the one of the compaction all equal the
// adjacency of an index matched from scratch on the final graph.
func TestQuickAdjacencyCarriedEqualsScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func(g *graph.Graph) match.Matcher { return match.NewSymISO(g) }
	overlapped := 0
	for trial := 0; trial < 40; trial++ {
		g0, d1 := randTyped(rng)
		g1, touched1, err := g0.Apply(d1)
		if err != nil {
			t.Fatal(err)
		}
		g2, touched2, err := g1.Apply(randDelta(rng, g1))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range patchMetagraphs() {
			p1 := RematchDelta(g1, m, mk, touched1)
			p2 := RematchDelta(g2, m, mk, touched2)
			for _, k := range p1.mxy.keys {
				if findKey(p2.mxy.keys, k) >= 0 {
					overlapped++
					break
				}
			}
			scratch := matchOne(m, mk(g2.Compact()))

			base := matchOne(m, mk(g0))
			base.BuildAdjacency()
			carried := base.WithPatch(p1).WithPatch(p2)
			if !carried.HasAdjacency() {
				t.Fatalf("trial %d: WithPatch dropped a built adjacency", trial)
			}
			checkAdjacency(t, "carried", carried, scratch, g2.NumNodes())

			lazy := matchOne(m, mk(g0)).WithPatch(p1).WithPatch(p2)
			if lazy.HasAdjacency() {
				t.Fatalf("trial %d: patching an unfinished index built an adjacency", trial)
			}
			checkAdjacency(t, "built on first use", lazy, scratch, g2.NumNodes())

			checkAdjacency(t, "compacted", carried.Compact(), scratch, g2.NumNodes())
		}
	}
	if overlapped == 0 {
		t.Fatal("no trial had overlapping patches; the property was not exercised")
	}
}

// TestAdjacencyOfHandBuiltPatch covers what re-matching never produces but
// the types allow: a pair whose endpoints have no node row, a patch that
// introduces node ids beyond the base, and an index with no pairs at all.
func TestAdjacencyOfHandBuiltPatch(t *testing.T) {
	empty := NewBuilder(1).Build()
	empty.BuildAdjacency()
	if got := empty.Candidates(3); len(got.Nodes) != 0 {
		t.Fatalf("empty index has candidates %v", got.Nodes)
	}
	p := handPatch(1, map[graph.NodeID][]Entry{3: {{Meta: 0, Count: 2}}},
		map[PairKey][]Entry{MakePairKey(1, 3): {{Meta: 0, Count: 1}}, MakePairKey(3, 9): {{Meta: 0, Count: 4}}})
	patched := empty.WithPatch(p)
	c := patched.Candidates(3)
	if !slices.Equal(c.Nodes, []graph.NodeID{1, 9}) {
		t.Fatalf("partners of 3 = %v, want [1 9]", c.Nodes)
	}
	if c.NodeVec(0).Len() != 0 || c.PairVec(1).Get(0) != 4 {
		t.Fatalf("slots of 3 resolve to m_1 = %v, m_39 = %v", c.NodeVec(0), c.PairVec(1))
	}
	if c := patched.Candidates(9); !slices.Equal(c.Nodes, []graph.NodeID{3}) || c.NodeVec(0).Get(0) != 2 {
		t.Fatalf("partners of 9 = %v", c.Nodes)
	}
	checkAdjacency(t, "hand-built", patched, patched.Compact(), 10)
}
