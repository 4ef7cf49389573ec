package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Live mutations. A Graph stays immutable — applying a Delta never touches
// the receiver; it produces a NEW graph value one version later, in fresh
// flat CSR arrays identical to what Builder.Build would have produced on the
// final node/edge set: the untouched rows are copied in blocks, the touched
// ones merged with their new neighbours.
//
// Deltas are additive: nodes and edges can be added, never removed. That
// matches the serving scenario (the object graph only grows while queries
// are in flight) and is what makes incremental index maintenance exact —
// existing metagraph instances are never destroyed, and an instance is new
// exactly when one of its edges is (Def. 2), so per-key counts only grow, by
// the instances through the delta's edges. The graph an Apply returns
// therefore remembers those edges (DeltaEdges).

// DeltaNode declares one node addition: a type name (which must already be
// registered in the graph — a delta cannot invent types) and an intrinsic
// value.
type DeltaNode struct {
	Type  string
	Value string
}

// Delta is a batch of node and edge additions. New nodes receive the ids
// n, n+1, ... (n = NumNodes of the graph the delta is applied to) in slice
// order, and Edges may reference both existing and new ids. Self loops and
// edges already present are ignored, exactly as Builder.Build ignores them.
type Delta struct {
	Nodes []DeltaNode
	Edges []Edge
}

// Empty reports whether the delta adds nothing.
func (d *Delta) Empty() bool { return len(d.Nodes) == 0 && len(d.Edges) == 0 }

// Version returns the graph's version counter: 0 for a freshly built
// graph, parent+1 for every Apply. Snapshots restore it via WithVersion.
func (g *Graph) Version() uint64 { return g.version }

// WithVersion returns a shallow copy of g carrying the given version. All
// storage is shared; use it to re-anchor the counter of a graph
// deserialized from a format that does not carry one.
func (g *Graph) WithVersion(v uint64) *Graph {
	ng := *g
	ng.version = v
	return &ng
}

// DeltaEdges returns the edges the Apply that produced g genuinely added —
// normalized U < V, in delta order, without self loops, duplicates or edges
// the parent already had. It is empty for a built or loaded graph and for
// the result of a no-op delta. Every instance g has and its parent
// lacked maps a metagraph edge onto one of these, which is all incremental
// re-matching enumerates. The slice is shared; do not modify.
func (g *Graph) DeltaEdges() []Edge { return g.deltaEdges }

// ValidateApply reports whether d would be accepted by Apply on a graph
// holding numNodes nodes under the given type registry — exactly Apply's
// rejection conditions (unknown type name, out-of-range edge endpoint),
// factored out as THE definition of delta acceptability. Apply itself
// validates through it, and replication uses it to check each streamed
// record at the record's own position in a coalesced batch: a record
// invalid there must fail on followers as it would have on the primary,
// and sharing the predicate makes that structural — a future extra
// rejection condition added here is automatically enforced on both
// sides.
func ValidateApply(types *TypeRegistry, numNodes int, d Delta) error {
	newN := numNodes + len(d.Nodes)
	for i, n := range d.Nodes {
		if types.ID(n.Type) == InvalidType {
			return fmt.Errorf("graph: delta node %d has unknown type %q", i, n.Type)
		}
	}
	for _, e := range d.Edges {
		if e.U < 0 || int(e.U) >= newN || e.V < 0 || int(e.V) >= newN {
			return fmt.Errorf("graph: delta edge (%d,%d) references missing node (have %d)", e.U, e.V, newN)
		}
	}
	return nil
}

// Apply returns a new graph one version later with the delta's nodes and
// edges added, plus the sorted set of existing-row nodes whose adjacency
// actually changed (the old endpoints of genuinely new edges). The
// receiver is not modified; the result is laid out flat, and carries the
// genuinely new edges as DeltaEdges.
//
// Apply fails if a node names an unregistered type or an edge endpoint is
// out of range (see ValidateApply); on failure the receiver is unchanged
// and no partial state escapes.
func (g *Graph) Apply(d Delta) (*Graph, []NodeID, error) {
	oldN := g.NumNodes()
	newN := oldN + len(d.Nodes)
	if err := ValidateApply(g.types, oldN, d); err != nil {
		return nil, nil, err
	}
	newTypes := make([]TypeID, 0, len(d.Nodes))
	for _, n := range d.Nodes {
		newTypes = append(newTypes, g.types.ID(n.Type))
	}

	// Keep only genuinely new edges: no self loops, no duplicates within
	// the delta, nothing already present — the same normalization
	// Builder.Build applies, so an incrementally grown graph is exactly
	// the graph a from-scratch build of the final edge set yields.
	seen := make(map[[2]NodeID]struct{}, len(d.Edges))
	added := make([]Edge, 0, len(d.Edges))
	for _, e := range d.Edges {
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
		if int(v) < oldN && g.HasEdge(u, v) {
			continue
		}
		added = append(added, Edge{u, v})
	}

	ng := &Graph{
		types:    g.types,
		nodeType: g.nodeType,
		nodeName: g.nodeName,
		off:      g.off,
		nbr:      g.nbr,
		typeOff:  g.typeOff,
		byType:   g.byType,
		numEdges: g.numEdges + len(added),
		version:  g.version + 1,
		names:    g.names,

		deltaEdges: added,
	}
	if len(d.Nodes) > 0 {
		ng.nodeType = append(append(make([]TypeID, 0, newN), g.nodeType...), newTypes...)
		names := append(make([]string, 0, newN), g.nodeName...)
		for _, n := range d.Nodes {
			names = append(names, n.Value)
		}
		ng.nodeName = names
		ng.names = g.names.extended(names, oldN)
		// byType rows gaining nodes are copied ONCE, pre-sized for every
		// addition; the rest stay shared. New ids exceed all old ids, so
		// appending keeps rows ascending.
		gain := make(map[TypeID]int, len(newTypes))
		for _, t := range newTypes {
			gain[t]++
		}
		ng.byType = append([][]NodeID(nil), g.byType...)
		for t, n := range gain {
			row := make([]NodeID, len(g.byType[t]), len(g.byType[t])+n)
			copy(row, g.byType[t])
			ng.byType[t] = row
		}
		for i, t := range newTypes {
			ng.byType[t] = append(ng.byType[t], NodeID(oldN+i))
		}
	}
	if len(added) == 0 && len(d.Nodes) == 0 {
		return ng, nil, nil // a no-op: the adjacency is the receiver's
	}

	// Every node's new neighbours, grouped by node, ascending.
	more := make([]Edge, 0, 2*len(added))
	for _, e := range added {
		more = append(more, e, Edge{e.V, e.U})
	}
	slices.SortFunc(more, func(a, b Edge) int { return cmp.Compare(a.U, b.U) })
	var touched []NodeID
	for i, e := range more {
		if int(e.U) < oldN && (i == 0 || more[i-1].U != e.U) {
			touched = append(touched, e.U)
		}
	}
	ng.fold(g, more)
	return ng, touched, nil
}

// fold lays out ng's flat CSR arrays: the rows of parent g plus the new
// neighbours more lists (edge U gains neighbour V, grouped by U ascending),
// and an empty row for every appended node that gains none. The rows of
// the nodes between two that gain are copied as one block — their typed
// sub-range tables are relative to the row, so they copy as they are —
// and a row that gains is g's with the new neighbours merged in, re-sorted
// by (type, id) as Builder.Build sorts rows.
func (ng *Graph) fold(g *Graph, more []Edge) {
	n, oldN := ng.NumNodes(), g.NumNodes()
	nt1 := g.types.Len() + 1
	ng.off = make([]int64, n+1)
	ng.nbr = make([]NodeID, len(g.nbr)+len(more))
	ng.typeOff = make([]int32, n*nt1)
	at := int64(0) // where the next row starts
	// keep lays out the rows of v, lo <= v < hi, that gain nothing.
	keep := func(lo, hi int) {
		if top := min(hi, oldN); lo < top {
			shift := at - g.off[lo]
			for v := lo; v < top; v++ {
				ng.off[v] = g.off[v] + shift
			}
			at += int64(copy(ng.nbr[at:], g.nbr[g.off[lo]:g.off[top]]))
			copy(ng.typeOff[lo*nt1:top*nt1], g.typeOff[lo*nt1:top*nt1])
		}
		for v := max(lo, oldN); v < hi; v++ {
			ng.off[v] = at // a new node's empty row; its typeOff stays 0
		}
	}
	next := 0 // the first node not yet laid out
	for len(more) > 0 {
		v := int(more[0].U)
		k := 1
		for k < len(more) && int(more[k].U) == v {
			k++
		}
		keep(next, v)
		ng.off[v] = at
		row := ng.nbr[at:at]
		if v < oldN {
			row = append(row, g.nbr[g.off[v]:g.off[v+1]]...)
		}
		for _, e := range more[:k] {
			row = append(row, e.V)
		}
		slices.SortFunc(row, func(a, b NodeID) int {
			return cmp.Or(cmp.Compare(ng.nodeType[a], ng.nodeType[b]), cmp.Compare(a, b))
		})
		to := ng.typeOff[v*nt1 : (v+1)*nt1]
		for i, t := 0, 0; t < nt1; t++ {
			for i < len(row) && int(ng.nodeType[row[i]]) < t {
				i++
			}
			to[t] = int32(i)
		}
		at += int64(len(row))
		next, more = v+1, more[k:]
	}
	keep(next, n)
	ng.off[n] = at
}
