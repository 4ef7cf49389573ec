package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/flat"
)

// The binary graph section: how an engine snapshot carries its graph, on
// the flat stream primitives the index section uses (internal/flat; `uv` is
// an unsigned varint, a string is a uv length and that many bytes):
//
//	uv numTypes, numTypes × string    the type registry in TypeID order
//	uv numNodes, numNodes × (uv type, uv shared, string suffix)
//	numNodes × (uv k, k × uv gap)     per node v, its k neighbours above v,
//	                                  ascending: the first gap from v, each
//	                                  next from the one before, all ≥ 1
//
// A node's name is the first shared bytes of the previous node's name —
// "" before node 0 — then its suffix: names in NodeID order (user-0,
// user-1, …) mostly repeat their predecessor's prefix, and say it once.
// shared is at most maxShared, so a name costs at most that many bytes
// beyond the ones that arrived for it; without the cap, n names that each
// grow the one before by a byte would cost n²/2 bytes from a stream of a
// few bytes each.
// Every edge is written once, by its smaller endpoint, so the decoder needs
// no dedupe and places rows straight into the CSR arrays (see assemble).
// Names are byte strings, so any name — with spaces at either end, line
// breaks or a leading '#' — loads as it was saved, which the line-oriented
// text format (Write/Read), kept for hand-edited datasets, cannot promise.

// maxShared caps a name's shared prefix (see above).
const maxShared = 32

// Encode appends g to w as one graph section. An overlaid graph is written
// as the graph Compact would give: the section has no overlay.
func Encode(w *flat.Writer, g *Graph) {
	w.Uvarint(uint64(g.types.Len()))
	for _, name := range g.types.names {
		w.String(name)
	}
	n := g.NumNodes()
	w.Uvarint(uint64(n))
	last := ""
	for v := 0; v < n; v++ {
		name := g.nodeName[v]
		k := 0
		for k < min(len(last), len(name), maxShared) && last[k] == name[k] {
			k++
		}
		w.Uvarint(uint64(g.nodeType[v]))
		w.Uvarint(uint64(k))
		w.String(name[k:])
		last = name
	}
	var above []NodeID
	for v := NodeID(0); int(v) < n; v++ {
		above = above[:0]
		for _, u := range g.Neighbors(v) {
			if u > v {
				above = append(above, u)
			}
		}
		slices.Sort(above)
		w.Uvarint(uint64(len(above)))
		prev := v
		for _, u := range above {
			w.Uvarint(uint64(u - prev))
			prev = u
		}
	}
}

// Decode reads one graph section. The bytes are untrusted: more than
// MaxTypes types, a type name registered twice, a node type outside the
// registry, a name sharing more bytes than the previous name has or than
// maxShared, a neighbour list that is not strictly ascending above its node
// (which refuses self loops and duplicate edges) or that leaves the graph is
// refused with an error, and no allocation is sized by a count the stream
// merely claims (see flat.Grow).
func Decode(r *flat.Reader) (*Graph, error) {
	nt := r.Uvarint()
	if nt > MaxTypes {
		return nil, corrupt(r, fmt.Sprintf("%d types exceed the limit of %d", nt, MaxTypes))
	}
	types := NewTypeRegistry()
	for i := uint64(0); i < nt; i++ {
		if name := r.String(); types.Register(name) != TypeID(i) {
			return nil, corrupt(r, fmt.Sprintf("type %d repeats the name %q", i, name))
		}
	}
	numNodes := r.Uvarint()
	if numNodes > math.MaxInt32 {
		return nil, corrupt(r, fmt.Sprintf("%d nodes overflow a NodeID", numNodes))
	}
	n := int(numNodes)
	g := &Graph{types: types}
	var err error
	var name []byte // the previous node's name, then this one's
	for v := 0; v < n; v++ {
		if v == cap(g.nodeType) {
			if g.nodeType, err = flat.Grow(r, g.nodeType, n); err != nil {
				return nil, fmt.Errorf("graph: %w", err)
			}
			if g.nodeName, err = flat.Grow(r, g.nodeName, n); err != nil {
				return nil, fmt.Errorf("graph: %w", err)
			}
		}
		t := r.Uvarint()
		if t >= nt {
			return nil, corrupt(r, fmt.Sprintf("node %d has type %d of %d", v, t, nt))
		}
		shared := r.Uvarint()
		switch {
		case shared > uint64(len(name)):
			return nil, corrupt(r, fmt.Sprintf("node %d shares %d bytes of the previous name, which has %d", v, shared, len(name)))
		case shared > maxShared:
			return nil, corrupt(r, fmt.Sprintf("node %d shares %d bytes of the previous name, above the cap of %d", v, shared, maxShared))
		}
		name = r.AppendBytes(name[:shared])
		g.nodeType = append(g.nodeType, TypeID(t))
		g.nodeName = append(g.nodeName, string(name))
	}
	var uniq []Edge
	for v := uint64(0); v < numNodes; v++ {
		k := r.Uvarint()
		if k > numNodes-1-v {
			return nil, corrupt(r, fmt.Sprintf("node %d claims %d neighbours above it in a graph of %d", v, k, n))
		}
		prev := v
		for ; k > 0; k-- {
			d := r.Uvarint()
			switch {
			case d == 0 && prev == v:
				return nil, corrupt(r, fmt.Sprintf("node %d has a self loop", v))
			case d == 0:
				return nil, corrupt(r, fmt.Sprintf("node %d: neighbours not strictly ascending", v))
			case d > numNodes-1-prev:
				return nil, corrupt(r, fmt.Sprintf("node %d: neighbour beyond the %d nodes", v, n))
			}
			prev += d
			uniq = append(uniq, Edge{NodeID(v), NodeID(prev)})
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	g.assemble(uniq)
	return g, nil
}

// corrupt names what the section broke — unless the stream itself already
// failed, in which case the zero it returned is not the cause.
func corrupt(r *flat.Reader, what string) error {
	if err := r.Err(); err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	return errors.New("graph: " + what)
}
