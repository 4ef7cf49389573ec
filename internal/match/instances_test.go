package match_test

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metagraph"
	"repro/internal/mining"
)

// lexMinInstances is the de-duplication Instances used before the
// symmetry-breaking conditions, kept as their reference: every assignment
// of the full Match, reported iff it is lexicographically minimal among
// {a∘σ : σ ∈ Aut(m)}.
func lexMinInstances(matcher match.Matcher, m *metagraph.Metagraph, visit match.Visitor) {
	auts := m.Automorphisms()
	matcher.Match(m, func(a []graph.NodeID) bool {
		for _, s := range auts {
			for i := range a {
				if x, y := a[s[i]], a[i]; x != y {
					if x < y {
						return true
					}
					break
				}
			}
		}
		return visit(a)
	})
}

// collect runs enum and returns the assignments it visits, in order, after
// at most limit visits (limit < 0: all of them).
func collect(enum func(match.Visitor), limit int) [][]graph.NodeID {
	var out [][]graph.NodeID
	enum(func(a []graph.NodeID) bool {
		out = append(out, slices.Clone(a))
		return len(out) != limit
	})
	return out
}

// equivalenceGraph draws a dense graph over two types, so that stars and
// cycles have many instances each.
func equivalenceGraph(rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder()
	b.Types().Register("a")
	b.Types().Register("b")
	n := 12 + rng.Intn(14)
	for i := 0; i < n; i++ {
		b.AddNode([]string{"a", "b"}[rng.Intn(2)], "")
	}
	for i := 3 * n; i > 0; i-- {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return b.MustBuild()
}

// equivalenceMetagraphs covers |Aut| ∈ {1, 2, 4, 6, 8, 24} over types a=0
// and b=1: paths, 3- and 4-leaf stars, a one-type triangle, and 4-cycles
// over one and two types.
func equivalenceMetagraphs() []*metagraph.Metagraph {
	type E = metagraph.Edge
	return []*metagraph.Metagraph{
		metagraph.MustNew([]graph.TypeID{0, 1, 1}, []E{{U: 0, V: 1}, {U: 1, V: 2}}),
		metagraph.MustNew([]graph.TypeID{0, 1, 0}, []E{{U: 0, V: 1}, {U: 1, V: 2}}),
		metagraph.MustNew([]graph.TypeID{0, 0, 0, 0}, []E{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}),
		metagraph.MustNew([]graph.TypeID{1, 1, 0, 1}, []E{{U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 3}}),
		metagraph.MustNew([]graph.TypeID{0, 1, 1, 1, 1}, []E{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}}),
		metagraph.MustNew([]graph.TypeID{0, 0, 0}, []E{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}),
		metagraph.MustNew([]graph.TypeID{1, 1, 1, 1}, []E{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 0, V: 3}}),
		metagraph.MustNew([]graph.TypeID{0, 0, 1, 1}, []E{{U: 0, V: 2}, {U: 1, V: 2}, {U: 0, V: 3}, {U: 1, V: 3}}),
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
// the rotations by three, none an involution, so SymISO places every node
// as a singleton group and checks the conditions there.
func chiralCycle() *metagraph.Metagraph {
	types := make([]graph.TypeID, 9)
	var edges []metagraph.Edge
	for i := range types {
		types[i] = graph.TypeID(i % 3)
		edges = append(edges, metagraph.Edge{U: min(i, (i+1)%9), V: max(i, (i+1)%9)})
	}
	return metagraph.MustNew(types, edges)
}

// checkEquivalent requires Instances to visit, element by element, what
// the lex-min filter over the full Match visits, for SymISO, SymISO-R and
// the brute-force reference (whose witnesses InstanceSets filters by the
// conditions, as it does Delta's), in full and when the visitor stops
// after k. Each side gets a
// fresh engine: SymISO-R draws its order from its seed once per Match.
func checkEquivalent(t *testing.T, label string, g *graph.Graph, m *metagraph.Metagraph) int {
	t.Helper()
	engines := map[string]func() match.Matcher{
		"SymISO":      func() match.Matcher { return match.NewSymISO(g) },
		"SymISO-R":    func() match.Matcher { return match.NewSymISOR(g, 11) },
		"brute force": func() match.Matcher { return match.NewBruteForce(g) },
	}
	var n int
	for name, newEngine := range engines {
		want := collect(func(v match.Visitor) { lexMinInstances(newEngine(), m, v) }, -1)
		n = len(want)
		for _, k := range []int{-1, 1, 2, len(want) / 2, len(want)} {
			if k == 0 {
				continue
			}
			got := collect(func(v match.Visitor) { match.Instances(newEngine(), m, v) }, k)
			w := want
			if k > 0 && k < len(w) {
				w = w[:k]
			}
			if !slices.EqualFunc(got, w, slices.Equal[[]graph.NodeID]) {
				t.Fatalf("%s, %s on %v, stop after %d: Instances visited %d assignments %v, the lex-min filter %d %v",
					label, name, m, k, len(got), head(got), len(w), head(w))
			}
		}
	}
	return n
}

// head is the first few assignments of as, for a failure message.
func head(as [][]graph.NodeID) [][]graph.NodeID { return as[:min(len(as), 4)] }

// TestInstancesEqualLexMinFilter: on seeded random graphs, for metagraphs
// whose automorphism groups have order 1 to 24 (the chiral cycle's, 3, is
// the one without an involution) and for the patterns mined
// at MaxNodes 5, Instances visits exactly the lex-min witnesses the filter
// over the full Match reports, in the same order, also when stopped early.
func TestInstancesEqualLexMinFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	orders := map[int]int{}
	for trial := 0; trial < 12; trial++ {
		g := equivalenceGraph(rng)
		for _, m := range equivalenceMetagraphs() {
			orders[len(m.Automorphisms())] += checkEquivalent(t, fmt.Sprint("trial ", trial), g, m)
		}
		orders[3] += checkEquivalent(t, fmt.Sprint("chiral trial ", trial), chiralGraph(rng), chiralCycle())
	}
	for _, k := range []int{1, 2, 3, 4, 6, 8, 24} {
		if orders[k] == 0 {
			t.Fatalf("no instance of a metagraph with |Aut| = %d: %v", k, orders)
		}
	}

	ds := dataset.LinkedIn(dataset.Config{Users: 40, Seed: 3, NoiseRate: 0.05})
	mined := mining.Metagraphs(mining.Mine(ds.G, mining.Options{MaxNodes: 5, MinSupport: 3}))
	var five, symmetric int
	for _, m := range mined {
		if m.N() == 5 {
			five++
		}
		if len(m.Automorphisms()) > 1 {
			symmetric++
		}
		checkEquivalent(t, "mined", ds.G, m)
	}
	if five == 0 || symmetric == 0 {
		t.Fatalf("%d patterns mined, %d of 5 nodes, %d with automorphisms", len(mined), five, symmetric)
	}
}

// TestInstanceSetsCountAsInstances: on the equivalence graphs, CountInstances
// (a binomial per set) equals the number of instances Instances visits, on
// SymISO and on the brute-force reference; the reference reports plain
// instances only, and SymISO reports some set with more candidates than
// positions.
func TestInstanceSetsCountAsInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var larger bool
	for trial := 0; trial < 12; trial++ {
		g := equivalenceGraph(rng)
		for _, m := range equivalenceMetagraphs() {
			for _, matcher := range []match.Matcher{match.NewSymISO(g), match.NewBruteForce(g)} {
				visits := int64(len(collect(func(v match.Visitor) { match.Instances(matcher, m, v) }, -1)))
				if n := match.CountInstances(matcher, m); n != visits {
					t.Fatalf("trial %d, %T on %v: CountInstances %d, Instances visited %d", trial, matcher, m, n, visits)
				}
				match.InstanceSets(matcher, m, func(s match.Set) bool {
					if _, sym := matcher.(*match.SymISO); !sym && len(s.P) > 0 {
						t.Fatalf("%T reported a set over %v", matcher, s.P)
					}
					larger = larger || len(s.F) > len(s.P)
					return true
				})
			}
		}
	}
	if !larger {
		t.Fatal("SymISO reported no set with more candidates than positions")
	}
}

// TestBinomial: C(n, k) against math/big for every k of n up to 70, zero
// for k outside [0, n], and false exactly when the value exceeds uint64.
func TestBinomial(t *testing.T) {
	limit := new(big.Int).SetUint64(math.MaxUint64)
	for n := 0; n <= 70; n++ {
		for k := -1; k <= n+1; k++ {
			want := new(big.Int)
			if k >= 0 && k <= n {
				want.Binomial(int64(n), int64(k))
			}
			got, ok := match.Binomial(n, k)
			if fits := want.Cmp(limit) <= 0; ok != fits || fits && got != want.Uint64() {
				t.Fatalf("Binomial(%d, %d) = %d, %v; want %v (fits uint64: %v)", n, k, got, ok, want, fits)
			}
		}
	}
}
