// Package match implements metagraph matching (Sect. IV of the paper):
// computing the instances I(M) of a metagraph M on a typed object graph G.
//
// The product runs one engine, SymISO, the paper's contribution (Sect.
// IV-C, Alg. 2–3): it decomposes a symmetric metagraph into symmetric
// components and computes candidate matchings once per component group.
// It has one search, planned with nothing, one position or the two ends of
// a metagraph edge pinned: the offline index build and the miner's support
// run it unpinned, Train's rooted counts at one position
// (SymISO.Root), and an update at each edge it added (GainedInstanceSets).
// The backtracking baselines the paper compares against (Fig. 11) live
// with that experiment, in internal/experiments.
//
// An engine's Match enumerates assignments: injective, type-preserving
// maps from metagraph nodes to graph nodes under which every metagraph
// edge lands on a graph edge (Def. 2; instances are subgraphs, not induced
// subgraphs). Distinct assignments related by an automorphism of M
// describe the same instance subgraph. InstanceSets reports each instance
// exactly once, through the symmetry-breaking conditions of M
// (metagraph.SymmetryConditions): SymISO enumerates only the assignments
// that satisfy them, pruning a branch as soon as one fails, and any other
// engine's assignments are filtered by them. Where SymISO's last-placed
// group is interchangeable one-node members, every choice of them from one
// candidate list is an instance, and InstanceSets reports the list as one
// set, leaving the choices to the caller to count or expand. SymISO.Root
// roots the same enumeration at one node: it reports the instances that
// hold that node on a given position, each once, under the conditions of
// the position's stabilizer. GainedInstanceSets pins it at both ends of
// each edge an update added, under the conditions of the pointwise
// stabilizer of the metagraph edge's ends, and reports each new instance
// once.
package match

import (
	"math"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/metagraph"
)

// Visitor receives one assignment per call: a[i] is the graph node matched
// to metagraph node i. The slice is reused between calls; implementations
// must copy it if they retain it. Returning false stops the enumeration.
type Visitor func(a []graph.NodeID) bool

// Matcher enumerates all assignments of a metagraph on the graph it was
// constructed for. SymISO implements it, and so do the baselines of
// internal/experiments; InstanceSets takes any.
type Matcher interface {
	// Match enumerates every assignment of m, in engine-specific order.
	Match(m *metagraph.Metagraph, visit Visitor)
}

// Set is one or more instances of a metagraph that differ only in the nodes
// on positions P: every choice of len(P) nodes of F, placed on P in
// ascending order, completes A to one instance, so the set holds
// C(len(F), len(P)) of them. A places every position outside P and holds
// graph.InvalidNode on P. F is ascending. A plain instance is the set with
// P and F empty. The slices are reused between calls; a visitor must copy
// what it retains.
type Set struct {
	A []graph.NodeID
	P []int
	F []graph.NodeID
}

// SetVisitor receives one Set per call. Returning false stops the
// enumeration.
type SetVisitor func(s Set) bool

// InstanceSets enumerates the instances of m exactly once, grouped into
// sets. SymISO reports a set wherever its last-placed group of one-node
// members is interchangeable (symState.setOf): it has at least two members,
// no edge between them, and no condition but the ascending chain among
// them, so that the members' free candidates are all it still has to
// choose. Any other engine, and SymISO on any other metagraph, report
// plain instances.
func InstanceSets(matcher Matcher, m *metagraph.Metagraph, visit SetVisitor) {
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
		return visit(Set{A: a})
	})
}

// CountInstances returns the number of distinct instances of m, counting a
// set by its binomial. A count past int64 panics. No product code calls
// it: it is the one instance count the tests of this package and of
// internal/index and the root package's offline-build benchmark share, so
// that summing sets by their binomials, and refusing an overflow, is
// written once.
func CountInstances(matcher Matcher, m *metagraph.Metagraph) int64 {
	var n uint64
	InstanceSets(matcher, m, func(s Set) bool {
		c, ok := Binomial(len(s.F), len(s.P))
		if n += c; !ok || n < c || n > math.MaxInt64 {
			panic("match: the instance count of " + m.String() + " overflows int64")
		}
		return true
	})
	return int64(n)
}

// Binomial returns C(n, k), 0 for k outside [0, n], and false when it
// exceeds uint64. Every step's product is exact in 128 bits, and each
// partial result C(n-k+i, i) is at most the final one, so a step that
// overflows means the result does.
func Binomial(n, k int) (uint64, bool) {
	if k < 0 || k > n {
		return 0, true
	}
	k = min(k, n-k)
	r := uint64(1)
	for i := 1; i <= k; i++ {
		hi, lo := bits.Mul64(r, uint64(n-k+i))
		if hi >= uint64(i) {
			return 0, false
		}
		r, _ = bits.Div64(hi, lo, uint64(i))
	}
	return r, true
}
