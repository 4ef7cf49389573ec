package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/metagraph"
)

// naiveRank is the definition Rank must reproduce, and RankTop its first
// k, written with none of their machinery: the candidates are found by
// probing every node's pair row by key, scored through NodeVec/PairVec by
// key, and sorted in full under rankedBetter.
func naiveRank(g *graph.Graph, ix *index.Index, w []float64, q graph.NodeID) []Ranked {
	var out []Ranked
	qDot := ix.NodeVec(q).Dot(w)
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if v == q || ix.PairVec(q, v).Len() == 0 {
			continue
		}
		den := qDot + ix.NodeVec(v).Dot(w)
		if den <= 0 {
			continue
		}
		if s := 2 * ix.PairVec(q, v).Dot(w) / den; s > 0 {
			out = append(out, Ranked{v, s})
		}
	}
	sort.Slice(out, func(i, j int) bool { return rankedBetter(out[i], out[j]) })
	return out
}

// checkRankIdentity compares RankTop for the usual ks, and Rank, against
// the naive reference: same nodes, same score bits, same order.
func checkRankIdentity(t *testing.T, label string, g *graph.Graph, ix *index.Index, w []float64, q graph.NodeID) {
	t.Helper()
	all := naiveRank(g, ix, w, q)
	for _, k := range []int{-1, 0, 1, 3, 10, 1 << 20} {
		want := all
		if k > 0 && len(want) > k {
			want = want[:k]
		}
		if got := RankTop(ix, w, q, k); !slices.Equal(got, want) {
			t.Fatalf("%s q=%d k=%d: RankTop = %+v, want %+v", label, q, k, got, want)
		}
	}
	if got := Rank(ix, w, q); !slices.Equal(got, all) {
		t.Fatalf("%s q=%d: Rank = %+v, want %+v", label, q, got, all)
	}
}

// denseMetagraphs are the two user-attribute-user metapaths over the types
// of denseRandomGraph (user=0, a=1, b=2).
func denseMetagraphs() []*metagraph.Metagraph {
	return []*metagraph.Metagraph{
		metagraph.MustNew([]graph.TypeID{0, 1, 0}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}),
		metagraph.MustNew([]graph.TypeID{0, 2, 0}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}),
	}
}

// denseRandomGraph builds a random user/attribute graph with few attribute
// nodes, so partner lists grow to hundreds of candidates — far beyond any
// k, which is what exercises the bounded heap.
func denseRandomGraph(rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder()
	b.Types().Register("user")
	b.Types().Register("a")
	b.Types().Register("b")
	nu := 64 + rng.Intn(128)
	na := 2 + rng.Intn(3)
	users := make([]graph.NodeID, nu)
	for i := range users {
		users[i] = b.AddNode("user", "")
	}
	attrsA := make([]graph.NodeID, na)
	attrsB := make([]graph.NodeID, na)
	for i := 0; i < na; i++ {
		attrsA[i] = b.AddNode("a", "")
		attrsB[i] = b.AddNode("b", "")
	}
	for _, u := range users {
		b.AddEdge(u, attrsA[rng.Intn(na)])
		if rng.Intn(4) > 0 {
			b.AddEdge(u, attrsB[rng.Intn(na)])
		}
	}
	return b.MustBuild()
}

func buildIndex(g *graph.Graph, ms []*metagraph.Metagraph) *index.Index {
	bld := index.NewBuilder(len(ms))
	matcher := match.NewSymISO(g)
	for i, m := range ms {
		bld.AddMetagraph(i, m, matcher)
	}
	return bld.Build()
}

func randomWeights(rng *rand.Rand, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.Float64()
	}
	return w
}

// scanInput is one index reading and one weight vector to rank under.
type scanInput struct {
	ix *index.Index
	w  []float64
}

// scanInputs are the readings and weights the identity properties run
// under: on the raw counts, random weights and the sparse ones whose
// zero-weight metagraphs a scan skips — all zero, one-hot at every
// metagraph, every other metagraph zeroed — and through a log1p transform,
// random and every-other-zeroed weights.
func scanInputs(rng *rand.Rand, ix *index.Index) []scanInput {
	n := ix.NumMeta()
	random, half := randomWeights(rng, n), randomWeights(rng, n)
	for i := 0; i < n; i += 2 {
		half[i] = 0
	}
	log1p := ix.Transform(math.Log1p)
	in := []scanInput{{ix, random}, {ix, make([]float64, n)}, {ix, half}, {log1p, random}, {log1p, half}}
	for i := 0; i < n; i++ {
		oneHot := make([]float64, n)
		oneHot[i] = 1
		in = append(in, scanInput{ix, oneHot})
	}
	return in
}

// TestRankTopMatchesNaive is the identity property of the candidate scan:
// on random graphs — sparse ones with ties and short lists, dense ones
// with hundreds of candidates — under random weights and the sparse ones
// whose zero-weight metagraphs the scan skips, on raw counts and through a
// transform, RankTop and Rank equal the naive reference node-for-node and
// score-bit-for-bit, for every k, for anchor and non-anchor queries alike.
func TestRankTopMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sparseG, sparseIx := randomBipartiteIndex(rng)
		denseG := denseRandomGraph(rng)
		denseIx := buildIndex(denseG, denseMetagraphs())
		for _, c := range []struct {
			label string
			g     *graph.Graph
			ix    *index.Index
		}{{"sparse", sparseG, sparseIx}, {"dense", denseG, denseIx}} {
			for _, in := range scanInputs(rng, c.ix) {
				// Every node is a legal query: attribute nodes are never a
				// symmetric anchor and must rank nothing.
				for q := graph.NodeID(0); int(q) < c.g.NumNodes(); q++ {
					checkRankIdentity(t, fmt.Sprintf("%s w=%v", c.label, in.w), c.g, in.ix, in.w, q)
				}
			}
		}
		users := denseG.NodesOfType(0)
		if n := len(denseIx.Partners(users[0])); n <= 10 {
			t.Fatalf("seed %d: dense partner list has %d candidates, too short to overflow k", seed, n)
		}
	}
}

// TestRankTopDegenerate pins the edge cases: an all-zero weight vector
// scores every candidate out, a query without partners and a query the
// index has never seen rank nothing, and every empty ranking is non-nil.
func TestRankTopDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := denseRandomGraph(rng)
	ix := buildIndex(g, denseMetagraphs())
	users := g.NodesOfType(0)
	attr := g.NodesOfType(1)[0]
	uniform := UniformWeights(ix.NumMeta())
	for _, c := range []struct {
		label string
		w     []float64
		q     graph.NodeID
	}{
		{"zero weights", make([]float64, ix.NumMeta()), users[0]},
		{"partnerless query", uniform, attr},
		{"query beyond the index", uniform, graph.NodeID(g.NumNodes() + 7)},
		{"invalid query", uniform, graph.InvalidNode},
	} {
		for _, k := range []int{0, 10} {
			if got := RankTop(ix, c.w, c.q, k); got == nil || len(got) != 0 {
				t.Fatalf("%s k=%d: ranked %#v, want empty non-nil", c.label, k, got)
			}
		}
	}
}

// TestRankTopOnPatchedIndex runs the identity property through a patch:
// after a graph delta, the patched index and a from-scratch index of the
// final graph both rank exactly as the naive
// reference does, under the same weights and readings as
// TestRankTopMatchesNaive.
func TestRankTopOnPatchedIndex(t *testing.T) {
	mk := func(g *graph.Graph) match.Matcher { return match.NewSymISO(g) }
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := denseRandomGraph(rng)
		users, attrs := g.NodesOfType(0), g.NodesOfType(1)
		d := graph.Delta{Nodes: []graph.DeltaNode{{Type: "user", Value: ""}}}
		d.Edges = append(d.Edges, graph.Edge{U: graph.NodeID(g.NumNodes()), V: attrs[rng.Intn(len(attrs))]})
		for i := 0; i < 3; i++ {
			d.Edges = append(d.Edges, graph.Edge{U: users[rng.Intn(len(users))], V: attrs[rng.Intn(len(attrs))]})
		}
		ng, touched, err := g.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		touched = append(touched, graph.NodeID(g.NumNodes()))
		ms := denseMetagraphs()
		patch := index.MergeGains(len(ms), []int{0, 1},
			[]*index.Patch{index.RematchDelta(ng, ms[0], mk, touched), index.RematchDelta(ng, ms[1], mk, touched)})
		if patch.Empty() {
			t.Fatalf("seed %d: delta patched nothing", seed)
		}

		patched, err := buildIndex(g, ms).WithPatch(patch)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			label string
			ix    *index.Index
		}{
			{"patched", patched},
			{"scratch", buildIndex(ng, ms)},
		} {
			for _, in := range scanInputs(rng, c.ix) {
				for q := graph.NodeID(0); int(q) < ng.NumNodes(); q++ {
					checkRankIdentity(t, fmt.Sprintf("%s w=%v", c.label, in.w), ng, in.ix, in.w, q)
				}
			}
		}
	}
}

var (
	sinkRanked []Ranked
	sinkScore  float64
)

// TestRankAllocBudget pins the two allocation budgets of the read path: a
// top-k query allocates its result and nothing else, however long the
// candidate list — its accumulator comes from a pool — and a proximity
// allocates nothing. The race detector empties pools on purpose, so the
// first budget is only held without it.
func TestRankAllocBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := denseRandomGraph(rng)
	ix := buildIndex(g, denseMetagraphs())
	w := UniformWeights(ix.NumMeta())
	users := g.NodesOfType(0)
	q, v := users[0], users[1]
	if n := len(ix.Partners(q)); n <= 10 {
		t.Fatalf("only %d candidates: the budget must hold on a list longer than k", n)
	}
	if a := testing.AllocsPerRun(200, func() { sinkRanked = RankTop(ix, w, q, 10) }); a > 1 && !raceEnabled {
		t.Errorf("RankTop(k=10) allocates %.1f times per query, want <= 1", a)
	}
	if a := testing.AllocsPerRun(200, func() { sinkScore = Proximity(ix, w, q, v) }); a != 0 {
		t.Errorf("Proximity allocates %.1f times per call, want 0", a)
	}
}
