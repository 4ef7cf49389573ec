package match_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metagraph"
	"repro/internal/mining"
)

// TestRootedEqualsInstancesAtTheNode: for every orbit of positions and
// every node, the instances a rooted run at the orbit's first position
// reports are, each once, the instances of the full enumeration that hold
// the node somewhere on the orbit, and every one places it on the root.
// The metagraphs are the equivalence set (|Aut| 1 to 24), the chiral
// cycle, and the patterns mined at MaxNodes 5. A run stopped early leaves
// the next one whole, and a node of another type, or none the graph holds,
// has no instance.
func TestRootedEqualsInstancesAtTheNode(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var sets int
	for trial := 0; trial < 6; trial++ {
		g := equivalenceGraph(rng)
		for _, m := range equivalenceMetagraphs() {
			sets += checkRooted(t, fmt.Sprint("trial ", trial), g, m)
		}
		checkRooted(t, fmt.Sprint("chiral trial ", trial), chiralGraph(rng), chiralCycle())
	}
	ds := dataset.LinkedIn(dataset.Config{Users: 40, Seed: 3, NoiseRate: 0.05})
	for _, m := range mining.Metagraphs(mining.Mine(ds.G, mining.Options{MaxNodes: 5, MinSupport: 3})) {
		sets += checkRooted(t, "mined", ds.G, m)
	}
	if sets == 0 {
		t.Fatal("no rooted run reported a set of more than one instance")
	}
}

// checkRooted compares the rooted runs of m on g with the full
// enumeration, and returns how many sets of more than one instance the
// runs reported.
func checkRooted(t *testing.T, label string, g *graph.Graph, m *metagraph.Metagraph) int {
	t.Helper()
	auts := m.Automorphisms()
	if g.NumNodes() >= 1<<12 {
		t.Fatalf("%s: %d nodes do not pack into 12 bits each", label, g.NumNodes())
	}
	// canon packs the lexicographically least of {a∘σ}, 12 bits a node:
	// the instance's one key.
	canon := func(a []graph.NodeID) uint64 {
		best := uint64(math.MaxUint64)
		for _, s := range auts {
			var k uint64
			for i := range a {
				k = k<<12 | uint64(a[s[i]])
			}
			best = min(best, k)
		}
		return best
	}
	all := collect(func(v match.Visitor) { match.Instances(match.NewSymISO(g), m, v) }, -1)
	matcher := match.NewSymISO(g)
	sets := 0
	for r := 0; r < m.N(); r++ {
		var orbit uint16
		for _, s := range auts {
			orbit |= 1 << s[r]
		}
		if orbit&(1<<r-1) != 0 {
			continue // r is not its orbit's first position
		}
		holding := make(map[graph.NodeID][]uint64) // node → instances holding it on the orbit
		for _, a := range all {
			for p, u := range a {
				if orbit>>p&1 != 0 {
					holding[u] = append(holding[u], canon(a))
				}
			}
		}
		root := matcher.Root(m, r)
		for v := graph.NodeID(-1); int(v) <= g.NumNodes(); v++ {
			want, got := holding[v], []uint64(nil)
			match.RootedInstances(root, v, func(a []graph.NodeID) bool {
				if a[r] != v {
					t.Fatalf("%s, %v at %d: node %d rooted at %v", label, m, r, v, a)
				}
				got = append(got, canon(a))
				return true
			})
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s, %v rooted at %d on node %d: %d instances %v, the full enumeration holds %d %v",
					label, m, r, v, len(got), head2(got), len(want), head2(want))
			}
			if len(got) < 2 {
				continue
			}
			var first []string
			root.Sets(v, func(s match.Set) bool {
				if len(s.P) > 0 && len(s.F) > len(s.P) {
					sets++
				}
				first = append(first, fmt.Sprint(s.A, s.F))
				return false
			})
			if len(first) != 1 {
				t.Fatalf("%s: a stopped run reported %d sets", label, len(first))
			}
			n := 0
			match.RootedInstances(root, v, func([]graph.NodeID) bool { n++; return true })
			if n != len(want) {
				t.Fatalf("%s, %v rooted at %d on node %d: %d instances after a stopped run, want %d", label, m, r, v, n, len(want))
			}
		}
	}
	return sets
}

// head2 is the first few keys of a failure message.
func head2(keys []uint64) []uint64 { return keys[:min(len(keys), 4)] }
