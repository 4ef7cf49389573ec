package match

import (
	"repro/internal/graph"
	"repro/internal/metagraph"
)

// Delta is the matcher of incremental maintenance. Deltas are additive, so
// an assignment exists on the post-delta graph and not on its parent
// exactly when some metagraph edge lands on an edge the delta added
// (Def. 2: an instance is new iff one of its edges is). Delta enumerates
// those assignments and no others: for each added edge (u,v), each
// type-compatible metagraph edge (i,j) and both orientations it binds
// a[i]=u, a[j]=v and backtracks the remaining positions over typed
// adjacency. An assignment that uses several added edges is reached once
// per such edge and reported only from the lowest-indexed one.
//
// The search reads the rows of the nodes it binds and nothing else: it
// keeps no per-node scratch, no graph statistics and no copy of any
// region, so its work is a function of the degrees around the added edges
// and not of the size of the graph (Visited is the measure). The reported
// set is closed under the automorphisms of the metagraph — an automorphism
// permutes which metagraph edge covers which graph edge, never the set of
// graph edges covered — so InstanceSets over a Delta reports each new
// instance exactly once.
type Delta struct {
	g     *graph.Graph
	edges []graph.Edge
	// rank gives an added edge's index in edges; nil for a single-edge
	// delta, which has nothing to de-duplicate.
	rank    map[graph.Edge]int
	visited int64
}

// NewDelta builds the matcher for the edges g's own Apply added
// (g.DeltaEdges); on a graph that did not come out of Apply it matches
// nothing.
func NewDelta(g *graph.Graph) *Delta {
	d := &Delta{g: g, edges: g.DeltaEdges()}
	if len(d.edges) > 1 {
		d.rank = make(map[graph.Edge]int, len(d.edges))
		for i, e := range d.edges {
			d.rank[e] = i
		}
	}
	return d
}

// Visited returns the number of assignments, partial and complete, the
// Match calls so far have visited: the nodes of the search trees.
func (d *Delta) Visited() int64 { return d.visited }

// Match implements Matcher for the assignments of m that use an added edge.
func (d *Delta) Match(m *metagraph.Metagraph, visit Visitor) {
	r := deltaRun{d: d, m: m, full: uint16(1)<<uint(m.N()) - 1, visit: visit}
	for ei, e := range d.edges {
		r.seed = ei
		tu, tv := d.g.Type(e.U), d.g.Type(e.V)
		for _, me := range m.Edges() {
			for _, o := range [2][2]int{{me.U, me.V}, {me.V, me.U}} {
				i, j := o[0], o[1]
				if m.Type(i) != tu || m.Type(j) != tv {
					continue
				}
				r.a[i], r.a[j] = e.U, e.V
				r.extend(1<<uint(i) | 1<<uint(j))
				if r.stopped {
					return
				}
			}
		}
	}
}

// deltaRun is one Match call's search state.
type deltaRun struct {
	d     *Delta
	m     *metagraph.Metagraph
	a     [metagraph.MaxNodes]graph.NodeID
	full  uint16 // bitmask of all positions
	seed  int    // index of the added edge the current search is seeded from
	visit Visitor

	stopped bool
}

// extend completes the partial assignment over the positions in bound. It
// binds next the unbound position with the shortest candidate list — the
// typed neighbours of one of its bound metagraph neighbours (m is
// connected, so one always exists) — which is what keeps a search seeded
// next to a hub from walking the hub's row when a sparser way in exists.
func (r *deltaRun) extend(bound uint16) {
	r.d.visited++
	g, m := r.d.g, r.m
	if bound == r.full {
		if r.first() && !r.visit(r.a[:m.N()]) {
			r.stopped = true
		}
		return
	}
	next, pivot, best := -1, -1, 0
	for p := 0; p < m.N(); p++ {
		if bound&(1<<uint(p)) != 0 {
			continue
		}
		for q := 0; q < m.N(); q++ {
			if bound&m.AdjMask(p)&(1<<uint(q)) == 0 {
				continue
			}
			if deg := g.DegreeOfType(r.a[q], m.Type(p)); next < 0 || deg < best {
				next, pivot, best = p, q, deg
			}
		}
	}
	others := bound & m.AdjMask(next) &^ (1 << uint(pivot))
candidates:
	for _, c := range g.NeighborsOfType(r.a[pivot], m.Type(next)) {
		for q := 0; q < m.N(); q++ {
			if bound&(1<<uint(q)) == 0 {
				continue
			}
			if r.a[q] == c || others&(1<<uint(q)) != 0 && !g.HasEdge(c, r.a[q]) {
				continue candidates
			}
		}
		r.a[next] = c
		r.extend(bound | 1<<uint(next))
		if r.stopped {
			return
		}
	}
}

// first reports whether the complete assignment uses no added edge of a
// lower index than the one it was seeded from — the rule that reports an
// assignment through several added edges once.
func (r *deltaRun) first() bool {
	if r.d.rank == nil {
		return true
	}
	for _, me := range r.m.Edges() {
		u, v := r.a[me.U], r.a[me.V]
		if u > v {
			u, v = v, u
		}
		if i, ok := r.d.rank[graph.Edge{U: u, V: v}]; ok && i < r.seed {
			return false
		}
	}
	return true
}
