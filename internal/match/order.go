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
	return estimateOrder(s, m, nil)
}

// estimateOrder is EstimateOrder starting at the one position of pins, or
// at the rarest type's node when pins is empty.
func estimateOrder(s *GraphStats, m *metagraph.Metagraph, pins []int) []int {
	n := m.N()
	order := make([]int, 0, n)
	placed := make([]bool, n)

	first := -1
	if len(pins) > 0 {
		first = pins[0]
	} else {
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
// possible, and otherwise to a node of placed (a bitmask of positions the
// search has placed before the subset) when possible. Used to order nodes
// inside a SymISO component: a node next to neither is matched by a scan
// of its whole type.
func connectedOrder(m *metagraph.Metagraph, nodes []int, placed uint16) []int {
	order := make([]int, 0, len(nodes))
	var walked uint16
	for len(order) < len(nodes) {
		next := -1
		for _, near := range [3]uint16{walked, placed, ^uint16(0)} {
			for _, v := range nodes {
				if walked>>v&1 == 0 && (near == ^uint16(0) || m.AdjMask(v)&near != 0) {
					next = v
					break
				}
			}
			if next >= 0 {
				break
			}
		}
		order = append(order, next)
		walked |= 1 << next
	}
	return order
}
