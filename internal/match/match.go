// Package match implements metagraph matching (Sect. IV of the paper):
// computing the instances I(M) of a metagraph M on a typed object graph G.
//
// Four engines are provided. QuickSI, TurboISO and BoostISO are
// reimplementations of the backtracking baselines the paper compares
// against (Sect. IV-A, Fig. 11), each preserving its distinguishing pruning
// idea. SymISO is the paper's contribution (Sect. IV-C, Alg. 2–3): it
// decomposes a symmetric metagraph into symmetric components and computes
// candidate matchings once per component group.
//
// All engines enumerate assignments: injective, type-preserving maps from
// metagraph nodes to graph nodes under which every metagraph edge lands on
// a graph edge (Def. 2; instances are subgraphs, not induced subgraphs).
// Distinct assignments related by an automorphism of M describe the same
// instance subgraph. Instances reports each instance exactly once, through
// the symmetry-breaking conditions of M (metagraph.SymmetryConditions):
// SymISO enumerates only the assignments that satisfy them, pruning a
// branch as soon as one fails, and any other engine's assignments are
// filtered by them. Engines are differential-tested to produce identical
// assignment sets.
package match

import (
	"repro/internal/graph"
	"repro/internal/metagraph"
)

// Visitor receives one assignment per call: a[i] is the graph node matched
// to metagraph node i. The slice is reused between calls; implementations
// must copy it if they retain it. Returning false stops the enumeration.
type Visitor func(a []graph.NodeID) bool

// Matcher enumerates all assignments of a metagraph on the graph it was
// constructed for.
type Matcher interface {
	// Name identifies the engine in reports ("QuickSI", "SymISO", ...).
	Name() string
	// Match enumerates every assignment of m, in engine-specific order.
	Match(m *metagraph.Metagraph, visit Visitor)
}

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
// enumerates the other |Aut(M)|-1 assignments of an instance.
func Instances(matcher Matcher, m *metagraph.Metagraph, visit Visitor) {
	conds := m.SymmetryConditions()
	if s, ok := matcher.(*SymISO); ok {
		s.run(m, conds, visit)
		return
	}
	matcher.Match(m, func(a []graph.NodeID) bool {
		for _, c := range conds {
			if a[c.U] >= a[c.V] {
				return true
			}
		}
		return visit(a)
	})
}

// CountInstances returns the number of distinct instances of m.
func CountInstances(matcher Matcher, m *metagraph.Metagraph) int64 {
	var n int64
	Instances(matcher, m, func([]graph.NodeID) bool {
		n++
		return true
	})
	return n
}
