package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Stats summarizes a typed object graph; it backs the dataset-description
// rows of Table II.
type Stats struct {
	Nodes     int
	Edges     int
	Types     int
	ByType    map[string]int // node count per type name
	MaxDegree int
	AvgDegree float64
}

// ComputeStats returns summary statistics for g.
func ComputeStats(g *Graph) Stats {
	s := Stats{
		Nodes:  g.NumNodes(),
		Edges:  g.NumEdges(),
		Types:  g.NumTypes(),
		ByType: make(map[string]int, g.NumTypes()),
	}
	for t := TypeID(0); int(t) < g.NumTypes(); t++ {
		s.ByType[g.types.Name(t)] = g.NumNodesOfType(t)
	}
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		if d := g.Degree(v); d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	if s.Nodes > 0 {
		s.AvgDegree = 2 * float64(s.Edges) / float64(s.Nodes)
	}
	return s
}

func (s Stats) String() string {
	names := make([]string, 0, len(s.ByType))
	for n := range s.ByType {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%d nodes, %d edges, %d types (avg deg %.2f, max deg %d)",
		s.Nodes, s.Edges, s.Types, s.AvgDegree, s.MaxDegree)
	for _, n := range names {
		fmt.Fprintf(&b, "; %s=%d", n, s.ByType[n])
	}
	return b.String()
}
