package index_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/metagraph"
	"repro/internal/mining"
)

// TestRootedRowsEqualFullMatch holds the rooted count to the full match:
// for every metagraph mined at the
// read_direct, lifecycle and paper (600 users, MaxNodes 5) shapes, seeds
// 1–3, the rows RootedParts counts at an example set's keys are the rows
// MatchParts' part of that metagraph holds there. The examples are
// college triplets plus triplets of non-anchor nodes and triplets with
// q == x. Then a delta adds two users, one with the neighbourhood of an
// example node and one hanging off a query node, both join the examples,
// and the two counts meet again on the patched graph, at every shape but
// the paper's, whose full match alone takes seconds. -short keeps seed 1 of
// each shape, and the race detector skips the paper shape.
func TestRootedRowsEqualFullMatch(t *testing.T) {
	shapes := []struct {
		name            string
		users, maxNodes int
	}{{"read_direct", 5000, 3}, {"lifecycle", 600, 4}, {"paper", 600, 5}}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, sh := range shapes {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", sh.name, seed), func(t *testing.T) {
				if sh.maxNodes > 4 && index.RaceEnabled {
					t.Skip("the full MaxNodes-5 match takes minutes under the race detector")
				}
				ds := dataset.LinkedIn(dataset.Config{Users: sh.users, Seed: seed, NoiseRate: 0.05})
				ms := mining.Metagraphs(mining.ProximityFilter(
					mining.Mine(ds.G, mining.Options{MaxNodes: sh.maxNodes, MinSupport: 5}), ds.Anchor))
				labels := ds.Classes["college"]
				examples := eval.MakeExamples(labels, labels.Queries(), ds.Users(), 100, seed)
				examples = append(examples, oddExamples(ds.G, examples[0])...)
				checkRootedRows(t, "fresh", ds.G, ms, examples)
				if sh.name == "paper" {
					return
				}
				q, x := examples[0].Q, examples[0].X
				g2, added := grow(t, ds.G, q, x)
				examples = append(examples,
					core.Example{Q: added[0], X: x, Y: added[1]},
					core.Example{Q: q, X: added[0], Y: added[1]},
					core.Example{Q: added[1], X: q, Y: added[0]})
				checkRootedRows(t, "patched", g2, ms, examples)
			})
		}
	}
}

// oddExamples returns triplets the sampled ones never hold: every node of
// a non-anchor type (one college, employer and location each, from ex's
// neighbourhood), and q == x.
func oddExamples(g *graph.Graph, ex core.Example) []core.Example {
	var other []graph.NodeID
	seen := map[graph.TypeID]bool{g.Type(ex.Q): true}
	for _, v := range slices.Concat(g.Neighbors(ex.Q), g.Neighbors(ex.X)) {
		if !seen[g.Type(v)] {
			seen[g.Type(v)] = true
			other = append(other, v)
		}
	}
	out := []core.Example{{Q: ex.Q, X: ex.Q, Y: ex.Y}, {Q: ex.X, X: ex.Y, Y: ex.X}}
	for i := range other {
		out = append(out, core.Example{Q: other[i], X: other[(i+1)%len(other)], Y: ex.Q})
	}
	return out
}

// grow applies a delta that adds two users: the first shares every
// neighbour of x, the second knows q and the first of q's non-user
// neighbours.
func grow(t *testing.T, g *graph.Graph, q, x graph.NodeID) (*graph.Graph, []graph.NodeID) {
	t.Helper()
	n := graph.NodeID(g.NumNodes())
	d := graph.Delta{Nodes: []graph.DeltaNode{{Type: "user", Value: "rooted-a"}, {Type: "user", Value: "rooted-b"}}}
	for _, v := range g.Neighbors(x) {
		d.Edges = append(d.Edges, graph.Edge{U: n, V: v})
	}
	d.Edges = append(d.Edges, graph.Edge{U: n + 1, V: q})
	for _, v := range g.Neighbors(q) {
		if g.Type(v) != g.Type(q) {
			d.Edges = append(d.Edges, graph.Edge{U: n + 1, V: v})
			break
		}
	}
	g2, added, err := g.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	return g2, added
}

// checkRootedRows compares, metagraph by metagraph, the rooted rows of the
// examples' keys with the full-match part's rows at the same keys.
func checkRootedRows(t *testing.T, stage string, g *graph.Graph, ms []*metagraph.Metagraph, examples []core.Example) {
	t.Helper()
	keys := core.TrainKeys(examples)
	full, _ := index.MatchParts(ms, func() match.Matcher { return match.NewSymISO(g) }, 2)
	rooted := index.RootedParts(g, ms, keys)
	rows := 0
	for i, m := range ms {
		want := full[i].Select(keys)
		if got, w := index.ContentDigest(rooted[i]), index.ContentDigest(want); got != w {
			t.Errorf("%s: metagraph %d %v: rooted rows differ from the full match's (%d pairs vs %d)",
				stage, i, m, rooted[i].NumPairs(), want.NumPairs())
		}
		rows += want.NumPairs()
	}
	if rows == 0 {
		t.Errorf("%s: the examples name no pair row at all", stage)
	}
}
