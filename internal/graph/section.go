package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/flat"
)

// The binary graph section: how an engine snapshot carries its graph, on
// the flat stream primitives the index section uses (internal/flat). Every
// integer is an exp-Golomb code of the order in the right column
// (flat.Writer.ExpGolomb); only the names are bytes, and they come after
// the codes that say how long they are, so no node pays for alignment:
//
//	                                   order
//	numTypes                             0
//	numTypes × name length               0   the type registry, in TypeID
//	                                         order
//	numNodes                             0
//	numNodes × (type, shared, suffix   0, 2, 1
//	            length)
//	zero bits to a byte boundary, then the type names' bytes and the
//	nodes' suffixes' bytes, each after the one before
//	numNodes × (k, k × gap)            0, 5  per node v, its k neighbours
//	                                         above v, ascending: the first
//	                                         gap from v, each next from the
//	                                         one before, all ≥ 1
//	zero bits to a byte boundary
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

// The exp-Golomb order of each field of the section (see above).
const (
	ordSize   = 0 // numTypes, a type name's length, numNodes
	ordType   = 0 // a node's type
	ordShared = 2 // a node's shared prefix length
	ordSuffix = 1 // a node's suffix length
	ordDegree = 0 // a node's neighbour count above it
	ordGap    = 5 // a neighbour's gap
)

// nameChunk is about how many bytes of names Decode puts in one string.
const nameChunk = 4 << 10

// maxSuffix bounds a suffix's claimed length, so that it packs beside its
// shared length (see Decode); no stream can deliver one that long.
const maxSuffix = 1<<57 - 1

// Encode appends g to w as one graph section.
func Encode(w *flat.Writer, g *Graph) {
	w.ExpGolomb(uint64(g.types.Len()), ordSize)
	for _, name := range g.types.names {
		w.ExpGolomb(uint64(len(name)), ordSize)
	}
	n := g.NumNodes()
	w.ExpGolomb(uint64(n), ordSize)
	for v := 0; v < n; v++ {
		k := g.shared(v)
		w.ExpGolomb(uint64(g.nodeType[v]), ordType)
		w.ExpGolomb(uint64(k), ordShared)
		w.ExpGolomb(uint64(len(g.nodeName[v])-k), ordSuffix)
	}
	for _, name := range g.types.names {
		w.Raw(name)
	}
	for v := 0; v < n; v++ {
		w.Raw(g.nodeName[v][g.shared(v):])
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
		w.ExpGolomb(uint64(len(above)), ordDegree)
		prev := v
		for _, u := range above {
			w.ExpGolomb(uint64(u-prev), ordGap)
			prev = u
		}
	}
	w.Align()
}

// shared is how many bytes node v's name shares with the previous node's,
// up to maxShared.
func (g *Graph) shared(v int) int {
	if v == 0 {
		return 0
	}
	last, name := g.nodeName[v-1], g.nodeName[v]
	k := 0
	for k < min(len(last), len(name), maxShared) && last[k] == name[k] {
		k++
	}
	return k
}

// Decode reads one graph section. The bytes are untrusted: more than
// MaxTypes types, a type name registered twice, a node type outside the
// registry, a name sharing more bytes than the previous name has or than
// maxShared, a neighbour list that is not strictly ascending above its node
// (which refuses self loops and duplicate edges) or that leaves the graph is
// refused with an error, and no allocation is sized by a count the stream
// merely claims (see flat.Grow): a name's bytes are allocated as they
// arrive, and each node's codes arrive before its name is sized.
func Decode(r *flat.Reader) (*Graph, error) {
	nt := r.ExpGolomb(ordSize)
	if nt > MaxTypes {
		return nil, corrupt(r, fmt.Sprintf("%d types exceed the limit of %d", nt, MaxTypes))
	}
	typeLen := make([]uint64, nt)
	for i := range typeLen {
		typeLen[i] = r.ExpGolomb(ordSize)
	}
	numNodes := r.ExpGolomb(ordSize)
	if numNodes > math.MaxInt32 {
		return nil, corrupt(r, fmt.Sprintf("%d nodes overflow a NodeID", numNodes))
	}
	n := int(numNodes)
	g := &Graph{}
	var err error
	var lens []uint64 // per node, suffix<<6 | shared
	prevLen := uint64(0)
	for v := 0; v < n; v++ {
		if v == cap(g.nodeType) {
			if g.nodeType, err = flat.Grow(r, g.nodeType, n); err != nil {
				return nil, fmt.Errorf("graph: %w", err)
			}
			if lens, err = flat.Grow(r, lens, n); err != nil {
				return nil, fmt.Errorf("graph: %w", err)
			}
		}
		t := r.ExpGolomb(ordType)
		if t >= nt {
			return nil, corrupt(r, fmt.Sprintf("node %d has type %d of %d", v, t, nt))
		}
		shared, suffix := r.ExpGolomb(ordShared), r.ExpGolomb(ordSuffix)
		switch {
		case shared > prevLen:
			return nil, corrupt(r, fmt.Sprintf("node %d shares %d bytes of the previous name, which has %d", v, shared, prevLen))
		case shared > maxShared:
			return nil, corrupt(r, fmt.Sprintf("node %d shares %d bytes of the previous name, above the cap of %d", v, shared, maxShared))
		case suffix > maxSuffix:
			return nil, corrupt(r, fmt.Sprintf("node %d claims a name of 2^57 bytes or more", v))
		}
		prevLen = shared + suffix
		g.nodeType = append(g.nodeType, TypeID(t))
		lens = append(lens, suffix<<6|shared)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	g.types = NewTypeRegistry()
	for i, l := range typeLen {
		if name := string(r.AppendRaw(nil, l)); r.Err() == nil && g.types.Register(name) != TypeID(i) {
			return nil, corrupt(r, fmt.Sprintf("type %d repeats the name %q", i, name))
		}
	}
	// The names are cut from strings of about nameChunk bytes, one
	// allocation each: chunk holds the names of nodes first to v-1, and
	// lens[u] becomes u's name's start in it.
	g.nodeName = make([]string, n)
	var name []byte // the previous node's name, then this one's
	var chunk []byte
	first := 0
	cut := func(end int) {
		s := string(chunk)
		for u := first; u < end; u++ {
			to := len(s)
			if u+1 < end {
				to = int(lens[u+1])
			}
			g.nodeName[u] = s[lens[u]:to]
		}
		chunk, first = chunk[:0], end
	}
	for v, l := range lens {
		if name = r.AppendRaw(name[:l&63], l>>6); name == nil && r.Err() != nil {
			return nil, fmt.Errorf("graph: %w", r.Err())
		}
		if len(chunk) > 0 && len(chunk)+len(name) > nameChunk {
			cut(v)
		}
		lens[v] = uint64(len(chunk))
		chunk = append(chunk, name...)
	}
	cut(n)
	var uniq []Edge
	for v := uint64(0); v < numNodes; v++ {
		k := r.ExpGolomb(ordDegree)
		if k > numNodes-1-v {
			return nil, corrupt(r, fmt.Sprintf("node %d claims %d neighbours above it in a graph of %d", v, k, n))
		}
		prev := v
		for ; k > 0; k-- {
			d := r.ExpGolomb(ordGap)
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
	if r.Align(); r.Err() != nil {
		return nil, fmt.Errorf("graph: %w", r.Err())
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
