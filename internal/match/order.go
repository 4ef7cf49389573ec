package match

import (
	"math"

	"repro/internal/graph"
	"repro/internal/metagraph"
)

// GraphStats caches per-type selectivity statistics of a graph for the
// matching-order estimates of Sect. IV-C: |I(u)| is approximated by the
// node count of u's type and |I(<u,u'>)| by the edge count between the two
// endpoint types.
type GraphStats struct {
	g *graph.Graph
	// nodesOfType[t] = number of nodes with type t.
	nodesOfType []float64
	// edgesOfTypes[t1*numTypes+t2] = number of edges joining types t1, t2
	// (symmetric; each undirected edge counted once in both slots).
	edgesOfTypes []float64
}

// NewGraphStats scans g once and returns its selectivity statistics.
func NewGraphStats(g *graph.Graph) *GraphStats {
	nt := g.NumTypes()
	s := &GraphStats{
		g:            g,
		nodesOfType:  make([]float64, nt),
		edgesOfTypes: make([]float64, nt*nt),
	}
	for t := 0; t < nt; t++ {
		s.nodesOfType[t] = float64(g.NumNodesOfType(graph.TypeID(t)))
	}
	g.Edges(func(u, v graph.NodeID) bool {
		tu, tv := int(g.Type(u)), int(g.Type(v))
		s.edgesOfTypes[tu*nt+tv]++
		if tu != tv {
			s.edgesOfTypes[tv*nt+tu]++
		}
		return true
	})
	return s
}

// NodeCount returns |I(u)| for a metagraph node of type t.
func (s *GraphStats) NodeCount(t graph.TypeID) float64 {
	return s.nodesOfType[t]
}

// EdgeCount returns |I(<u,u'>)| for an edge between types t1 and t2.
func (s *GraphStats) EdgeCount(t1, t2 graph.TypeID) float64 {
	return s.edgesOfTypes[int(t1)*s.g.NumTypes()+int(t2)]
}

// extensionFactor estimates the growth in intermediate instances when a
// node of type tNew is matched through an edge from a matched node of type
// tFrom: |I(<u,u'>)| / |I(u)| (Sect. IV-C).
func (s *GraphStats) extensionFactor(tFrom, tNew graph.TypeID) float64 {
	base := s.NodeCount(tFrom)
	if base == 0 {
		return math.Inf(1)
	}
	return s.EdgeCount(tFrom, tNew) / base
}

// EstimateOrder computes a matching order over m's nodes that greedily
// minimizes the estimated number of intermediate instances, mirroring the
// edge-growth estimation of Sect. IV-C. The first node is the one whose
// type is rarest in the graph; each subsequent node is a neighbor of the
// ordered prefix with the smallest extension factor (non-adjacent nodes are
// considered last with their full type count as the factor, which only
// matters for patterns whose prefix disconnects, and keeps the order total).
func EstimateOrder(s *GraphStats, m *metagraph.Metagraph) []int {
	return estimateOrder(s, m, -1)
}

// estimateOrder is EstimateOrder starting at node first, or at the rarest
// type's node when first is -1.
func estimateOrder(s *GraphStats, m *metagraph.Metagraph, first int) []int {
	n := m.N()
	order := make([]int, 0, n)
	placed := make([]bool, n)

	if first < 0 {
		bestCount := math.Inf(1)
		for i := 0; i < n; i++ {
			if c := s.NodeCount(m.Type(i)); c < bestCount {
				first, bestCount = i, c
			}
		}
	}
	order = append(order, first)
	placed[first] = true

	for len(order) < n {
		next, bestF := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if placed[i] {
				continue
			}
			f := math.Inf(1)
			for _, j := range order {
				if m.HasEdge(i, j) {
					if ef := s.extensionFactor(m.Type(j), m.Type(i)); ef < f {
						f = ef
					}
				}
			}
			if math.IsInf(f, 1) {
				// No edge to the prefix; deprioritize but keep finite so a
				// disconnected prefix cannot stall the order.
				f = s.NodeCount(m.Type(i)) + 1e12
			}
			if f < bestF || next == -1 {
				next, bestF = i, f
			}
		}
		order = append(order, next)
		placed[next] = true
	}
	return order
}

// connectedOrder returns an order over the node subset such that every node
// after the first is adjacent in m to an earlier node of the subset when
// possible. Used to order nodes inside a SymISO component.
func connectedOrder(m *metagraph.Metagraph, nodes []int) []int {
	if len(nodes) <= 1 {
		return append([]int(nil), nodes...)
	}
	in := make(map[int]bool, len(nodes))
	for _, v := range nodes {
		in[v] = true
	}
	order := []int{nodes[0]}
	placed := map[int]bool{nodes[0]: true}
	for len(order) < len(nodes) {
		found := -1
		for _, v := range nodes {
			if placed[v] {
				continue
			}
			for _, w := range order {
				if m.HasEdge(v, w) {
					found = v
					break
				}
			}
			if found != -1 {
				break
			}
		}
		if found == -1 {
			for _, v := range nodes {
				if !placed[v] {
					found = v
					break
				}
			}
		}
		order = append(order, found)
		placed[found] = true
	}
	return order
}
