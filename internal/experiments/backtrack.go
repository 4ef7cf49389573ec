package experiments

import (
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metagraph"
)

// backtracker is the shared recursive engine of Sect. IV-A. Engines differ
// in how they order metagraph nodes and how they generate candidate sets;
// the skeleton (extend D_k to D_{k+1}, backtrack on failure) is common.
type backtracker struct {
	g     *graph.Graph
	m     *metagraph.Metagraph
	order []int // matching order over metagraph nodes

	assign []graph.NodeID // assign[metagraph node] = graph node or InvalidNode
	used   []bool         // used[graph node]

	visit   match.Visitor
	stopped bool

	// candidates returns the candidate graph nodes for metagraph node u at
	// depth k. pivot is a matched neighbor of u chosen for its small typed
	// neighbor list, or -1 if u has no matched neighbor yet.
	candidates func(u, pivot int) []graph.NodeID
}

func newBacktracker(g *graph.Graph, m *metagraph.Metagraph, order []int, visit match.Visitor) *backtracker {
	b := &backtracker{
		g:      g,
		m:      m,
		order:  order,
		assign: make([]graph.NodeID, m.N()),
		used:   make([]bool, g.NumNodes()),
		visit:  visit,
	}
	for i := range b.assign {
		b.assign[i] = graph.InvalidNode
	}
	return b
}

// defaultCandidates picks candidates from the typed neighbor list of the
// matched neighbor with the fewest neighbors of u's type, or from all nodes
// of u's type if none is matched yet.
func (b *backtracker) defaultCandidates(u, pivot int) []graph.NodeID {
	if pivot >= 0 {
		return b.g.NeighborsOfType(b.assign[pivot], b.m.Type(u))
	}
	return b.g.NodesOfType(b.m.Type(u))
}

// pivotFor returns the matched neighbor of u with the smallest typed
// neighbor list, or -1.
func (b *backtracker) pivotFor(u int) int {
	best, bestDeg := -1, 0
	for _, w := range b.m.Neighbors(u) {
		if b.assign[w] == graph.InvalidNode {
			continue
		}
		d := b.g.DegreeOfType(b.assign[w], b.m.Type(u))
		if best == -1 || d < bestDeg {
			best, bestDeg = w, d
		}
	}
	return best
}

// consistent reports whether mapping u to v preserves all edges from u to
// already-matched metagraph nodes.
func (b *backtracker) consistent(u int, v graph.NodeID) bool {
	for _, w := range b.m.Neighbors(u) {
		if a := b.assign[w]; a != graph.InvalidNode && !b.g.HasEdge(v, a) {
			return false
		}
	}
	return true
}

func (b *backtracker) run() {
	if b.candidates == nil {
		b.candidates = b.defaultCandidates
	}
	b.rec(0)
}

func (b *backtracker) rec(k int) {
	if b.stopped {
		return
	}
	if k == len(b.order) {
		if !b.visit(b.assign) {
			b.stopped = true
		}
		return
	}
	u := b.order[k]
	pivot := b.pivotFor(u)
	for _, v := range b.candidates(u, pivot) {
		if b.used[v] || !b.consistent(u, v) {
			continue
		}
		b.assign[u] = v
		b.used[v] = true
		b.rec(k + 1)
		b.used[v] = false
		b.assign[u] = graph.InvalidNode
		if b.stopped {
			return
		}
	}
}

// QuickSI is the selectivity-ordered backtracking baseline: a static
// matching order minimizing estimated intermediate instances (as in Shang
// et al., PVLDB'08), with candidates drawn from the cheapest matched
// neighbor's typed adjacency list.
type QuickSI struct {
	g     *graph.Graph
	stats *match.GraphStats
}

// NewQuickSI builds a QuickSI engine for g.
func NewQuickSI(g *graph.Graph) *QuickSI {
	return &QuickSI{g: g, stats: match.NewGraphStats(g)}
}

// Match implements match.Matcher.
func (q *QuickSI) Match(m *metagraph.Metagraph, visit match.Visitor) {
	b := newBacktracker(q.g, m, match.EstimateOrder(q.stats, m), visit)
	b.run()
}
