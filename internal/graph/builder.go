package graph

import (
	"fmt"
	"slices"
)

// Builder accumulates nodes and edges and assembles an immutable Graph.
// The zero value is not usable; call NewBuilder.
type Builder struct {
	types    *TypeRegistry
	nodeType []TypeID
	nodeName []string
	edges    []Edge
	named    map[string]NodeID // value-keyed node lookup for AddNodeOnce
}

// NewBuilder returns an empty Builder with a fresh type registry.
func NewBuilder() *Builder {
	return &Builder{
		types: NewTypeRegistry(),
		named: make(map[string]NodeID),
	}
}

// Types exposes the builder's registry so callers can pre-register types in
// a fixed order (useful for reproducible TypeIDs).
func (b *Builder) Types() *TypeRegistry { return b.types }

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.nodeType) }

// AddNode adds a node with the given type name and intrinsic value, and
// returns its id. Values need not be unique.
func (b *Builder) AddNode(typeName, value string) NodeID {
	t := b.types.Register(typeName)
	id := NodeID(len(b.nodeType))
	b.nodeType = append(b.nodeType, t)
	b.nodeName = append(b.nodeName, value)
	return id
}

// AddNodeOnce adds a node keyed by (typeName, value) if it does not already
// exist, and returns the node's id either way. This is the natural way to
// build attribute graphs where attribute values like "College A" are shared.
func (b *Builder) AddNodeOnce(typeName, value string) NodeID {
	key := typeName + "\x00" + value
	if id, ok := b.named[key]; ok {
		return id
	}
	id := b.AddNode(typeName, value)
	b.named[key] = id
	return id
}

// AddEdge records the undirected edge {u, v}. Self loops and duplicates are
// tolerated here and removed by Build.
func (b *Builder) AddEdge(u, v NodeID) {
	b.edges = append(b.edges, Edge{u, v})
}

// Build assembles the Graph. It returns an error if any edge endpoint is out
// of range or more than MaxTypes types are registered.
func (b *Builder) Build() (*Graph, error) {
	if b.types.Len() > MaxTypes {
		return nil, fmt.Errorf("graph: %d types exceed the limit of %d", b.types.Len(), MaxTypes)
	}
	n := len(b.nodeType)
	for _, e := range b.edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) references missing node (have %d nodes)", e.U, e.V, n)
		}
	}

	// Deduplicate edges and drop self loops.
	seen := make(map[[2]NodeID]struct{}, len(b.edges))
	uniq := make([]Edge, 0, len(b.edges))
	for _, e := range b.edges {
		u, v := e.U, e.V
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := [2]NodeID{u, v}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		uniq = append(uniq, Edge{u, v})
	}
	g := &Graph{
		types:    b.types.Clone(),
		nodeType: append([]TypeID(nil), b.nodeType...),
		nodeName: append([]string(nil), b.nodeName...),
	}
	g.assemble(uniq)
	return g, nil
}

// assemble derives everything else of g from its types, nodes and uniq —
// distinct edges, U < V, endpoints in range: the CSR adjacency with each
// row sorted by (type, id) and its typed sub-ranges, the nodes of each type
// and the name lookup. Rows need no sort: every node is placed into its
// neighbours' rows in (type, id) order.
func (g *Graph) assemble(uniq []Edge) {
	n := len(g.nodeType)
	nt := g.types.Len()
	g.numEdges = len(uniq)
	g.names = &nameIndex{n: n}

	// Nodes by type, each list sized by a count first.
	g.byType = make([][]NodeID, nt)
	count := make([]int, nt)
	for _, t := range g.nodeType {
		count[t]++
	}
	for t, c := range count {
		g.byType[t] = make([]NodeID, 0, c)
	}
	for v, t := range g.nodeType {
		g.byType[t] = append(g.byType[t], NodeID(v))
	}

	// CSR offsets, then every row in edge order, then every row again with
	// the nodes of each type, ascending, placed into their neighbours' rows.
	g.off = make([]int64, n+1)
	for _, e := range uniq {
		g.off[e.U+1]++
		g.off[e.V+1]++
	}
	for v := 0; v < n; v++ {
		g.off[v+1] += g.off[v]
	}
	unsorted := make([]NodeID, g.off[n])
	fill := slices.Clone(g.off[:n])
	for _, e := range uniq {
		unsorted[fill[e.U]] = e.V
		fill[e.U]++
		unsorted[fill[e.V]] = e.U
		fill[e.V]++
	}
	g.nbr = make([]NodeID, g.off[n])
	copy(fill, g.off[:n])
	for _, nodes := range g.byType {
		for _, w := range nodes {
			for _, x := range unsorted[g.off[w]:g.off[w+1]] {
				g.nbr[fill[x]] = w
				fill[x]++
			}
		}
	}

	// Typed sub-ranges.
	g.typeOff = make([]int32, int64(n)*int64(nt+1))
	for v := 0; v < n; v++ {
		lst := g.nbr[g.off[v]:g.off[v+1]]
		base := int64(v) * int64(nt+1)
		idx := 0
		for t := 0; t < nt; t++ {
			g.typeOff[base+int64(t)] = int32(idx)
			for idx < len(lst) && g.nodeType[lst[idx]] == TypeID(t) {
				idx++
			}
		}
		g.typeOff[base+int64(nt)] = int32(idx)
	}
}

// MustBuild is Build but panics on error; convenient in tests and examples
// where edges are constructed programmatically and cannot be invalid.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
