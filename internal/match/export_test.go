package match

import (
	"repro/internal/graph"
	"repro/internal/metagraph"
)

// This file holds the enumerations only tests read: every assignment
// counted, every instance expanded one at a time, and a brute-force
// reference engine. Exported here, they serve the external tests too.

// CountAssignments runs matcher on m and returns the total number of
// assignments.
func CountAssignments(matcher Matcher, m *metagraph.Metagraph) int64 {
	var n int64
	matcher.Match(m, func([]graph.NodeID) bool {
		n++
		return true
	})
	return n
}

// Instances enumerates each instance subgraph of m exactly once: it visits
// the assignments a that are lexicographically minimal among {a∘σ : σ ∈
// Aut(M)}, in the order matcher's Match would visit them. Two assignments
// describe the same instance iff they differ by an automorphism, so this is
// one witness per instance. The witnesses are the assignments that satisfy
// m's symmetry-breaking conditions, a few comparisons each; SymISO checks
// each condition as soon as both of its nodes are placed and never
// enumerates the other |Aut(M)|-1 assignments of an instance. Instances is
// InstanceSets with every set expanded in ascending lexicographic order of
// the choices, the order SymISO's own search of the group would take.
func Instances(matcher Matcher, m *metagraph.Metagraph, visit Visitor) {
	InstanceSets(matcher, m, func(s Set) bool { return s.each(visit) })
}

// each visits the instances of s, reporting whether visit asked for more.
// It places each choice on P in turn and leaves P as it found it.
func (s Set) each(visit Visitor) bool {
	if len(s.P) == 0 {
		return visit(s.A)
	}
	var pick [metagraph.MaxNodes]int // ascending offsets into F
	k, last := len(s.P), len(s.F)-len(s.P)
	for j := range k {
		pick[j] = j
	}
	var more bool
	for {
		for j, p := range s.P {
			s.A[p] = s.F[pick[j]]
		}
		if more = visit(s.A); !more {
			break
		}
		j := k - 1
		for j >= 0 && pick[j] == last+j {
			j--
		}
		if j < 0 {
			break
		}
		pick[j]++
		for i := j + 1; i < k; i++ {
			pick[i] = pick[i-1] + 1
		}
	}
	for _, p := range s.P {
		s.A[p] = graph.InvalidNode
	}
	return more
}

// bruteForce is the reference engine: it tries every node of the right
// type for each metagraph node in index order, keeping a node only if it
// is unused and adjacent to the images of the earlier metagraph nodes it
// must be adjacent to. It shares no code with SymISO or Delta.
type bruteForce struct{ g *graph.Graph }

// NewBruteForce returns the brute-force reference engine for g.
func NewBruteForce(g *graph.Graph) Matcher { return bruteForce{g} }

// Match implements Matcher, in lexicographic order of the assignments.
func (b bruteForce) Match(m *metagraph.Metagraph, visit Visitor) {
	a := make([]graph.NodeID, m.N())
	var place func(i int) bool
	place = func(i int) bool {
		if i == m.N() {
			return visit(a)
		}
	next:
		for _, v := range b.g.NodesOfType(m.Type(i)) {
			for j := range i {
				if a[j] == v || m.HasEdge(i, j) && !b.g.HasEdge(v, a[j]) {
					continue next
				}
			}
			a[i] = v
			if !place(i + 1) {
				return false
			}
		}
		return true
	}
	place(0)
}
