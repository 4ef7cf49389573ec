package experiments

import (
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metagraph"
)

// TurboISO is the candidate-region baseline (after Han et al., SIGMOD'13):
// before backtracking it computes a filtered candidate set per metagraph
// node using degree and neighbor-type-frequency (NLF) conditions, and
// during backtracking it intersects the typed adjacency lists of *all*
// matched neighbors instead of pivoting on one. The stronger filtering is
// what distinguishes the engine; like the original, it ignores metagraph
// symmetry and so repeats work that SymISO reuses.
type TurboISO struct {
	g     *graph.Graph
	stats *match.GraphStats
}

// NewTurboISO builds a TurboISO engine for g.
func NewTurboISO(g *graph.Graph) *TurboISO {
	return &TurboISO{g: g, stats: match.NewGraphStats(g)}
}

// Match implements match.Matcher.
func (t *TurboISO) Match(m *metagraph.Metagraph, visit match.Visitor) {
	n := m.N()
	nt := t.g.NumTypes()

	// Neighbor-type requirements of each metagraph node.
	req := make([][]int, n)
	for u := 0; u < n; u++ {
		req[u] = make([]int, nt)
		for _, w := range m.Neighbors(u) {
			req[u][m.Type(w)]++
		}
	}

	passes := func(u int, v graph.NodeID) bool {
		if t.g.Degree(v) < m.Degree(u) {
			return false
		}
		for tt, need := range req[u] {
			if need > 0 && t.g.DegreeOfType(v, graph.TypeID(tt)) < need {
				return false
			}
		}
		return true
	}

	// Candidate sets per metagraph node (the "candidate regions").
	cand := make([][]graph.NodeID, n)
	candSet := make([]map[graph.NodeID]bool, n)
	for u := 0; u < n; u++ {
		for _, v := range t.g.NodesOfType(m.Type(u)) {
			if passes(u, v) {
				cand[u] = append(cand[u], v)
			}
		}
		if len(cand[u]) == 0 {
			return // some pattern node has no candidate: no instances
		}
		candSet[u] = make(map[graph.NodeID]bool, len(cand[u]))
		for _, v := range cand[u] {
			candSet[u][v] = true
		}
	}

	order := match.EstimateOrder(t.stats, m)
	b := newBacktracker(t.g, m, order, visit)
	// One scratch buffer per metagraph node: the recursion re-enters
	// candidates at deeper levels while the caller is still ranging over
	// its own result, so buffers must not be shared across depths.
	scratchFor := make([][]graph.NodeID, n)
	b.candidates = func(u, pivot int) []graph.NodeID {
		if pivot < 0 {
			return cand[u]
		}
		// Intersect typed adjacency of every matched neighbor, then filter
		// by the precomputed candidate region. Start from the pivot's list
		// (smallest typed degree).
		scratch := scratchFor[u][:0]
		base := t.g.NeighborsOfType(b.assign[pivot], m.Type(u))
	outer:
		for _, v := range base {
			if !candSet[u][v] {
				continue
			}
			for _, w := range m.Neighbors(u) {
				if w == pivot {
					continue
				}
				if a := b.assign[w]; a != graph.InvalidNode && !t.g.HasEdge(v, a) {
					continue outer
				}
			}
			scratch = append(scratch, v)
		}
		scratchFor[u] = scratch
		return scratch
	}
	b.run()
}
