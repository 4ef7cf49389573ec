// Package metagraph implements the type-level pattern graphs of the paper
// (Sect. II-A): a metagraph M = (V_M, E_M) whose nodes denote object types
// rather than objects. The package provides canonical forms for isomorphism
// deduplication, symmetry detection per Def. 1, and the symmetric-component
// decomposition and metagraph simplification that the SymISO matching
// algorithm builds on (Sect. IV-C).
//
// Metagraphs are tiny (the paper caps them at 5 nodes; we support up to 16),
// so all structural algorithms here are exact enumerations.
package metagraph

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
)

// MiningOptions configures a mining run (internal/mining.Options), declared
// here so that an engine's options carry it without linking the miner.
type MiningOptions struct {
	// MaxNodes caps |V_M|; the paper uses 5 (Sect. V-A).
	MaxNodes int
	// MinSupport is the MNI support threshold for a pattern to be frequent.
	MinSupport int
	// MaxPatterns stops mining after this many frequent patterns have been
	// collected (0 = unlimited); a safety valve for dense graphs.
	MaxPatterns int
}

// MaxNodes bounds the size of a metagraph. Sixteen lets adjacency fit in a
// uint16 bitmask per node while far exceeding the paper's cap of five.
const MaxNodes = 16

// Edge is an undirected edge between metagraph node indices, stored with
// U < V.
type Edge struct {
	U, V int
}

// Metagraph is an immutable small typed pattern graph. Node indices run
// 0..N()-1; each node has a type from the object graph's registry (τ_M).
type Metagraph struct {
	types []graph.TypeID
	adj   []uint16 // adj[i] bit j set iff edge {i,j}
	edges []Edge   // sorted (U,V) with U<V
	nbrs  [][]int  // nbrs[i] = neighbours of i, ascending; built once in New
	sym   *symmetry
}

// New builds a metagraph over the given node types with the given edges.
// It returns an error if the metagraph would be invalid: too many nodes,
// out-of-range endpoints, self loops, or a disconnected pattern. Duplicate
// edges are tolerated.
func New(types []graph.TypeID, edges []Edge) (*Metagraph, error) {
	n := len(types)
	if n == 0 {
		return nil, fmt.Errorf("metagraph: no nodes")
	}
	if n > MaxNodes {
		return nil, fmt.Errorf("metagraph: %d nodes exceeds MaxNodes=%d", n, MaxNodes)
	}
	m := &Metagraph{
		types: append([]graph.TypeID(nil), types...),
		adj:   make([]uint16, n),
		sym:   new(symmetry),
	}
	for _, e := range edges {
		u, v := e.U, e.V
		if u == v {
			return nil, fmt.Errorf("metagraph: self loop at %d", u)
		}
		if u < 0 || v < 0 || u >= n || v >= n {
			return nil, fmt.Errorf("metagraph: edge (%d,%d) out of range", u, v)
		}
		m.adj[u] |= 1 << uint(v)
		m.adj[v] |= 1 << uint(u)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if m.adj[u]&(1<<uint(v)) != 0 {
				m.edges = append(m.edges, Edge{u, v})
			}
		}
	}
	if !m.connected() {
		return nil, fmt.Errorf("metagraph: pattern is disconnected")
	}
	// Every neighbour list lives in one backing array of 2|E| entries;
	// each is capped so an append by a caller cannot spill into the next.
	backing := make([]int, 0, 2*len(m.edges))
	m.nbrs = make([][]int, n)
	for u := 0; u < n; u++ {
		start := len(backing)
		for v := 0; v < n; v++ {
			if m.adj[u]&(1<<uint(v)) != 0 {
				backing = append(backing, v)
			}
		}
		m.nbrs[u] = backing[start:len(backing):len(backing)]
	}
	return m, nil
}

// MustNew is New but panics on error.
func MustNew(types []graph.TypeID, edges []Edge) *Metagraph {
	m, err := New(types, edges)
	if err != nil {
		panic(err)
	}
	return m
}

// NewPath builds the metapath with the given type sequence:
// types[0]–types[1]–…–types[k-1].
func NewPath(types ...graph.TypeID) (*Metagraph, error) {
	edges := make([]Edge, 0, len(types)-1)
	for i := 0; i+1 < len(types); i++ {
		edges = append(edges, Edge{i, i + 1})
	}
	return New(types, edges)
}

// N returns |V_M|.
func (m *Metagraph) N() int { return len(m.types) }

// NumEdges returns |E_M|.
func (m *Metagraph) NumEdges() int { return len(m.edges) }

// Type returns τ_M(i).
func (m *Metagraph) Type(i int) graph.TypeID { return m.types[i] }

// Types returns a copy of the node type slice.
func (m *Metagraph) Types() []graph.TypeID {
	return append([]graph.TypeID(nil), m.types...)
}

// Edges returns the edge list sorted by (U, V). The slice aliases internal
// storage and must not be modified.
func (m *Metagraph) Edges() []Edge { return m.edges }

// HasEdge reports whether {u, v} ∈ E_M.
func (m *Metagraph) HasEdge(u, v int) bool {
	return u != v && m.adj[u]&(1<<uint(v)) != 0
}

// AdjMask returns the neighbor bitmask of node i.
func (m *Metagraph) AdjMask(i int) uint16 { return m.adj[i] }

// Degree returns the number of neighbors of node i.
func (m *Metagraph) Degree(i int) int {
	d := 0
	for mask := m.adj[i]; mask != 0; mask &= mask - 1 {
		d++
	}
	return d
}

// Neighbors returns the neighbor indices of node i in ascending order.
// The slice is computed once when the metagraph is built and aliases
// internal storage: it must not be modified. Matchers call it in their
// innermost loops, so it never allocates.
func (m *Metagraph) Neighbors(i int) []int { return m.nbrs[i] }

// Size returns |V_M| + |E_M|, the size measure used by the structural
// similarity of Sect. III-C.
func (m *Metagraph) Size() int { return m.N() + m.NumEdges() }

// IsPath reports whether the metagraph is a metapath: a single node, or a
// connected pattern whose nodes all have degree ≤ 2 with exactly two
// endpoints of degree 1 and no cycle.
func (m *Metagraph) IsPath() bool {
	n := m.N()
	if n == 1 {
		return true
	}
	ends := 0
	for i := 0; i < n; i++ {
		switch d := m.Degree(i); d {
		case 1:
			ends++
		case 2:
			// interior node
		default:
			return false
		}
	}
	// Connectivity is a construction invariant, so degree conditions plus
	// the tree edge count rule out cycles.
	return ends == 2 && m.NumEdges() == n-1
}

// NodesOfType returns the metagraph node indices having type t.
func (m *Metagraph) NodesOfType(t graph.TypeID) []int {
	var out []int
	for i, ti := range m.types {
		if ti == t {
			out = append(out, i)
		}
	}
	return out
}

// CountType returns the number of metagraph nodes having type t.
func (m *Metagraph) CountType(t graph.TypeID) int {
	c := 0
	for _, ti := range m.types {
		if ti == t {
			c++
		}
	}
	return c
}

// ExtendEdge returns a new metagraph with the extra edge {u, v} between
// existing nodes. It returns an error for invalid or duplicate edges.
func (m *Metagraph) ExtendEdge(u, v int) (*Metagraph, error) {
	if m.HasEdge(u, v) {
		return nil, fmt.Errorf("metagraph: edge (%d,%d) already present", u, v)
	}
	return New(m.types, append(append([]Edge(nil), m.edges...), Edge{min(u, v), max(u, v)}))
}

// ExtendNode returns a new metagraph with one extra node of type t attached
// to existing node u.
func (m *Metagraph) ExtendNode(u int, t graph.TypeID) (*Metagraph, error) {
	if u < 0 || u >= m.N() {
		return nil, fmt.Errorf("metagraph: node %d out of range", u)
	}
	types := append(m.Types(), t)
	edges := append(append([]Edge(nil), m.edges...), Edge{u, m.N()})
	return New(types, edges)
}

// String renders the metagraph compactly using type ids, e.g.
// "MG[0 1 0 | 0-1 1-2]".
func (m *Metagraph) String() string {
	var b strings.Builder
	b.WriteString("MG[")
	for i, t := range m.types {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", t)
	}
	b.WriteString(" |")
	for _, e := range m.edges {
		fmt.Fprintf(&b, " %d-%d", e.U, e.V)
	}
	b.WriteString("]")
	return b.String()
}

// Pretty renders the metagraph with type names from reg, e.g.
// "user–school–user + edges", for reports and examples.
func (m *Metagraph) Pretty(reg *graph.TypeRegistry) string {
	var b strings.Builder
	b.WriteString("{")
	for i, t := range m.types {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d:%s", i, reg.Name(t))
	}
	b.WriteString("; ")
	for i, e := range m.edges {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%d-%d", e.U, e.V)
	}
	b.WriteString("}")
	return b.String()
}

// connected reports whether the pattern is connected (checked once in New).
func (m *Metagraph) connected() bool {
	n := m.N()
	var seen uint16 = 1
	stack := []int{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for w := 0; w < n; w++ {
			bit := uint16(1) << uint(w)
			if m.adj[v]&bit != 0 && seen&bit == 0 {
				seen |= bit
				stack = append(stack, w)
			}
		}
	}
	return seen == uint16(1<<uint(n))-1
}

// Permute returns an isomorphic copy with node i renamed to perm[i].
// perm must be a permutation of 0..N()-1.
func (m *Metagraph) Permute(perm []int) (*Metagraph, error) {
	n := m.N()
	if len(perm) != n {
		return nil, fmt.Errorf("metagraph: permutation length %d != %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return nil, fmt.Errorf("metagraph: invalid permutation %v", perm)
		}
		seen[p] = true
	}
	types := make([]graph.TypeID, n)
	for i, t := range m.types {
		types[perm[i]] = t
	}
	edges := make([]Edge, 0, len(m.edges))
	for _, e := range m.edges {
		u, v := perm[e.U], perm[e.V]
		if u > v {
			u, v = v, u
		}
		edges = append(edges, Edge{u, v})
	}
	return New(types, edges)
}

// Equal reports structural equality under the identity mapping (same types
// in the same positions, same edge set). Use Canonical keys for isomorphism.
func (m *Metagraph) Equal(o *Metagraph) bool {
	if m.N() != o.N() || len(m.edges) != len(o.edges) {
		return false
	}
	for i := range m.types {
		if m.types[i] != o.types[i] {
			return false
		}
	}
	for i := range m.edges {
		if m.edges[i] != o.edges[i] {
			return false
		}
	}
	return true
}

// SortEdges sorts e in place by (U, V); exported for test helpers.
func SortEdges(e []Edge) {
	sort.Slice(e, func(i, j int) bool {
		if e[i].U != e[j].U {
			return e[i].U < e[j].U
		}
		return e[i].V < e[j].V
	})
}
