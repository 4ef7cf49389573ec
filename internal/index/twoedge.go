package index

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/metagraph"
)

// Two-edge metapaths. A metagraph A–B–A — three nodes, two edges, its ends
// of one type — has one symmetric pair, its ends. An instance is an
// end-typed x, a middle-typed b and an end-typed y ≠ x, b adjacent to
// both, so Eq. 2's m_xy = |N_B(x) ∩ N_B(y)| and Eq. 1's m_x =
// Σ_{b∈N_B(x)} (d_A(b) − 1): PathSim's commuting matrix W_AB·W_ABᵀ (Sun
// et al., VLDB 2011). The graph is the index of such a metapath: an index
// holds only its slot and types (a path), and every reader computes the
// row it asks for from the graph the index serves. Nothing is counted,
// stored, decoded or patched for it. SymISO (MatchParts) still counts
// every metagraph into runs, the reference the tests hold these rows to.

// path is a two-edge metapath an index serves from its graph: metagraph
// meta, of end type end and middle type mid, both types of the graph.
type path struct {
	meta     int32
	end, mid graph.TypeID
}

// IsTwoEdgeMetapath reports whether an index serves m from the graph: m
// has three nodes and two edges, and its two ends have one type.
func IsTwoEdgeMetapath(m *metagraph.Metagraph) bool {
	_, _, ok := twoEdgeTypes(m)
	return ok
}

// twoEdgeTypes returns the end and middle types of a two-edge metapath.
// A metagraph is connected, so three nodes and two edges are a path, and
// its centre is the node of degree 2.
func twoEdgeTypes(m *metagraph.Metagraph) (end, mid graph.TypeID, ok bool) {
	if m.N() != 3 || m.NumEdges() != 2 {
		return 0, 0, false
	}
	c := 0
	for m.Degree(c) != 2 {
		c++
	}
	a, b := (c+1)%3, (c+2)%3
	if m.Type(a) != m.Type(b) {
		return 0, 0, false
	}
	return m.Type(a), m.Type(c), true
}

// pathPart is the single-metagraph part index of the two-edge metapath m
// on g: its one slot served from g. A metapath naming a type g does not
// have has no instance on it, and its part holds nothing.
func pathPart(g *graph.Graph, m *metagraph.Metagraph) *Index {
	end, mid, _ := twoEdgeTypes(m)
	if nt := graph.TypeID(g.NumTypes()); end < 0 || end >= nt || mid < 0 || mid >= nt {
		return Empty(1)
	}
	return &Index{numMeta: 1, g: g, paths: []path{{0, end, mid}}}
}

// On returns the index serving its two-edge metapaths from g, a later
// version of the graph it was built on (graph.Apply keeps every type): an
// update moves the index, and those metapaths' rows, to the grown graph.
func (ix *Index) On(g *graph.Graph) *Index {
	if len(ix.paths) == 0 {
		return ix
	}
	return &Index{numMeta: ix.numMeta, flat: ix.flat, paths: ix.paths, g: g}
}

// PathNodes returns, ascending and without repeats, the nodes whose m_x of
// a two-edge metapath the edges the index's graph added last
// (graph.DeltaEdges) changed: for each new edge between an end-typed node
// and a middle-typed node b, every end-typed neighbour of b.
func (ix *Index) PathNodes() []graph.NodeID {
	var out []graph.NodeID
	for _, p := range ix.paths {
		for _, e := range ix.g.DeltaEdges() {
			for _, bo := range [2][2]graph.NodeID{{e.U, e.V}, {e.V, e.U}} {
				if b, o := bo[0], bo[1]; ix.g.Type(b) == p.mid && ix.g.Type(o) == p.end {
					out = append(out, ix.g.NeighborsOfType(b, p.end)...)
				}
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// onEnd reports whether x is an end-typed node of p in the index's graph.
func (ix *Index) onEnd(x graph.NodeID, p path) bool {
	return x >= 0 && int(x) < ix.g.NumNodes() && ix.g.Type(x) == p.end
}

// pathNode returns m_x of p: Σ_{b∈N_B(x)} (d_A(b) − 1), 0 off the end type.
func (ix *Index) pathNode(x graph.NodeID, p path) uint64 {
	if !ix.onEnd(x, p) {
		return 0
	}
	n := uint64(0)
	for _, b := range ix.g.NeighborsOfType(x, p.mid) {
		n += uint64(ix.g.DegreeOfType(b, p.end) - 1)
	}
	return n
}

// pathPair returns m_xy of p: |N_B(x) ∩ N_B(y)| for x ≠ y, by one merge
// of the two sorted lists.
func (ix *Index) pathPair(x, y graph.NodeID, p path) uint32 {
	if x == y || !ix.onEnd(x, p) || !ix.onEnd(y, p) {
		return 0
	}
	a, b := ix.g.NeighborsOfType(x, p.mid), ix.g.NeighborsOfType(y, p.mid)
	n := uint32(0)
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n, i, j = n+1, i+1, j+1
		}
	}
	return n
}

// pathPartners appends q's partners in p to dst, each once per middle
// node it shares with q, unsorted.
func (ix *Index) pathPartners(dst []graph.NodeID, q graph.NodeID, p path) []graph.NodeID {
	if !ix.onEnd(q, p) {
		return dst
	}
	for _, b := range ix.g.NeighborsOfType(q, p.mid) {
		for _, y := range ix.g.NeighborsOfType(b, p.end) {
			if y != q {
				dst = append(dst, y)
			}
		}
	}
	return dst
}
