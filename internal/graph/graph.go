package graph

import (
	"fmt"
	"maps"
	"sort"
	"sync"
)

// NodeID identifies a node (object) within a Graph. IDs are dense: a graph
// with n nodes uses IDs 0..n-1.
type NodeID int32

// InvalidNode marks "no such node" in lookups.
const InvalidNode NodeID = -1

// Edge is an undirected edge between two objects.
type Edge struct {
	U, V NodeID
}

// Graph is an immutable typed object graph in CSR form. Build one with a
// Builder, or derive the next version of a live graph with Apply. All
// accessors are safe for concurrent use because the structure is never
// mutated after Build/Apply.
type Graph struct {
	types *TypeRegistry

	nodeType []TypeID // τ: V → T
	nodeName []string // intrinsic values; may be empty strings

	// CSR adjacency. nbr[off[v]:off[v+1]] lists v's neighbors sorted by
	// (type, id).
	off []int64
	nbr []NodeID

	// typeOff[v*(numTypes+1)+t] is the index into nbr (relative to off[v])
	// where neighbors of type t start; the final slot holds the degree.
	typeOff []int32

	// byType[t] lists all nodes of type t in ascending order.
	byType [][]NodeID

	numEdges int

	// version counts Apply generations (see delta.go).
	version uint64

	// names answers NodeByName.
	names *nameIndex

	// deltaEdges are the edges the Apply that produced this graph added
	// (see DeltaEdges); nil unless the graph came out of Apply.
	deltaEdges []Edge
}

// nameIndex maps each non-empty intrinsic value of a graph's nodes to the
// first node carrying it. A built or decoded graph builds it on first use —
// most graphs (every test and offline build) never resolve a name — and
// Apply builds its result's at once (extended); it is immutable afterwards.
type nameIndex struct {
	once  sync.Once
	first map[string]NodeID
}

// get returns the lookup of names, building it on first use.
func (x *nameIndex) get(names []string) map[string]NodeID {
	x.once.Do(func() { x.first = addNames(make(map[string]NodeID, len(names)), names, 0) })
	return x.first
}

// extended returns the lookup of names, the names x covers (names[:from])
// followed by those of appended nodes, built at once on a copy of x's map.
func (x *nameIndex) extended(names []string, from int) *nameIndex {
	y := &nameIndex{}
	y.once.Do(func() { y.first = addNames(maps.Clone(x.get(names[:from])), names[from:], from) })
	return y
}

// addNames maps every non-empty name the map lacks to its node id, the
// position in names plus base, and returns the map.
func addNames(first map[string]NodeID, names []string, base int) map[string]NodeID {
	for i, name := range names {
		if _, dup := first[name]; !dup && name != "" {
			first[name] = NodeID(base + i)
		}
	}
	return first
}

// Types returns the graph's type registry.
func (g *Graph) Types() *TypeRegistry { return g.types }

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.nodeType) }

// NumEdges returns |E| (each undirected edge counted once).
func (g *Graph) NumEdges() int { return g.numEdges }

// NumTypes returns |T|.
func (g *Graph) NumTypes() int { return g.types.Len() }

// Type returns τ(v).
func (g *Graph) Type(v NodeID) TypeID { return g.nodeType[v] }

// Name returns the intrinsic value of v ("" if none was set).
func (g *Graph) Name(v NodeID) string { return g.nodeName[v] }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v NodeID) int {
	return int(g.off[v+1] - g.off[v])
}

// Neighbors returns v's neighbor list sorted by (type, id). The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return g.nbr[g.off[v]:g.off[v+1]]
}

// NeighborsOfType returns the neighbors of v having type t, sorted
// ascending. The returned slice aliases internal storage and must not be
// modified.
func (g *Graph) NeighborsOfType(v NodeID, t TypeID) []NodeID {
	base := g.off[v]
	k := int64(v) * int64(g.types.Len()+1)
	lo := base + int64(g.typeOff[k+int64(t)])
	hi := base + int64(g.typeOff[k+int64(t)+1])
	return g.nbr[lo:hi]
}

// DegreeOfType returns the number of neighbors of v having type t.
func (g *Graph) DegreeOfType(v NodeID, t TypeID) int {
	k := int64(v) * int64(g.types.Len()+1)
	return int(g.typeOff[k+int64(t)+1] - g.typeOff[k+int64(t)])
}

// HasEdge reports whether {u, v} ∈ E. Self loops never exist.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if u == v {
		return false
	}
	// Search the smaller typed range: v's neighbors of u's type.
	du, dv := g.Degree(u), g.Degree(v)
	if du < dv {
		u, v = v, u
	}
	rng := g.NeighborsOfType(v, g.Type(u))
	i := sort.Search(len(rng), func(i int) bool { return rng[i] >= u })
	return i < len(rng) && rng[i] == u
}

// CommonNeighborsOfType returns the nodes of type t adjacent to both u and
// v, exploiting that typed neighbor lists are sorted.
func CommonNeighborsOfType(g *Graph, u, v NodeID, t TypeID) []NodeID {
	a := g.NeighborsOfType(u, t)
	b := g.NeighborsOfType(v, t)
	var out []NodeID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// ShareNeighborOfType reports whether u and v have a common neighbor of
// type t: CommonNeighborsOfType's merge, stopped at the first one, with
// nothing allocated.
func ShareNeighborOfType(g *Graph, u, v NodeID, t TypeID) bool {
	a := g.NeighborsOfType(u, t)
	b := g.NeighborsOfType(v, t)
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// NodesOfType returns all nodes of type t in ascending order. The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) NodesOfType(t TypeID) []NodeID {
	if int(t) >= len(g.byType) || t < 0 {
		return nil
	}
	return g.byType[t]
}

// NumNodesOfType returns the number of nodes of type t.
func (g *Graph) NumNodesOfType(t TypeID) int { return len(g.NodesOfType(t)) }

// Edges iterates over every undirected edge exactly once (u < v) and calls
// fn. Iteration stops early if fn returns false.
func (g *Graph) Edges(fn func(u, v NodeID) bool) {
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				if !fn(u, v) {
					return
				}
			}
		}
	}
}

// NodeByName returns the first node whose intrinsic value equals name, or
// InvalidNode when there is none; the empty name is no value and resolves
// to InvalidNode. One map lookup, so it is fit for the request path.
func (g *Graph) NodeByName(name string) NodeID {
	if v, ok := g.names.get(g.nodeName)[name]; ok {
		return v
	}
	return InvalidNode
}

func (g *Graph) String() string {
	return fmt.Sprintf("Graph(%d nodes, %d edges, %d types)",
		g.NumNodes(), g.NumEdges(), g.NumTypes())
}

// validNode reports whether v is a node of g.
func (g *Graph) validNode(v NodeID) bool {
	return v >= 0 && int(v) < g.NumNodes()
}
