package index

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/metagraph"
)

// Two-edge metapaths. A metagraph A–B–A — three nodes, two edges, its ends
// of one type — has one symmetric pair, its two ends: its centre is the
// only node of degree 2, so the swap of the ends is its one non-identity
// automorphism. An instance is an end-typed x, a middle-typed b and an
// end-typed y ≠ x, b adjacent to both, so Eq. 2's m_xy is the number of
// B-neighbours x and y share, and Eq. 1's m_x, the instances with x on an
// end, is the row sum Σ_y m_xy: PathSim's commuting matrix W_AB·W_ABᵀ
// (Sun et al., VLDB 2011). It is counted without enumerating a single
// instance: for each end-typed node x, ascending, the sorted end-typed
// neighbour lists of x's middle-typed neighbours, cut to their nodes above
// x, merge into x's run above it — a partner's multiplicity in the merge is
// m_xy. The runs above each node are the form every count arrives in, so
// upperRuns.layout lays them out, and puts on each run's header its sum,
// m_x: for the part Count hands an engine (twoEdgePart), and beside a
// section's own runs when a snapshot is loaded (DecodeCounting). SymISO
// counts every other metagraph and stays the reference the tests hold the
// merge to.

// IsTwoEdgeMetapath reports whether Count counts m by the merge: m has
// three nodes and two edges, and its two ends have one type.
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

// twoEdgeBound is the most postings above their nodes the two-edge
// metapath m can have on g, Σ_b d_b(d_b−1)/2 over the middle-typed nodes
// b, d_b being b's end-typed neighbours — the count itself when no two
// nodes share two of them — or a number past limit once the sum passes it.
// It reads degrees only, so a graph's hubs cost nothing to price.
func twoEdgeBound(g *graph.Graph, m *metagraph.Metagraph, limit int64) int64 {
	end, mid, _ := twoEdgeTypes(m)
	if nt := graph.TypeID(g.NumTypes()); end < 0 || end >= nt || mid < 0 || mid >= nt {
		return 0
	}
	sum := int64(0)
	for _, b := range g.NodesOfType(mid) {
		d := int64(g.DegreeOfType(b, end))
		if sum += d * (d - 1) / 2; sum > limit {
			break
		}
	}
	return sum
}

// countedSlots returns, per metagraph, whether a section saved beside g
// leaves its rows out for DecodeCounting to count from g — each matched
// two-edge metapath of ms, in slot order, while the most postings the
// counted ones can have (twoEdgeBound) sum to at most maxCountedPerByte
// per byte of the stream before the section — and that sum. A metapath
// past it keeps its rows in the section, so a graph section of a few bytes
// a member cannot make a load pair a hub's members into postings it never
// sent. Both ends of a stream see the same graph at the same offset, so
// EncodeCounting and DecodeCounting leave out the same metapaths.
func countedSlots(g *graph.Graph, ms []*metagraph.Metagraph, matched []bool, bitsBefore int64) (counted []bool, bound int64) {
	budget := maxCountedPerByte * bitsBefore / 8
	counted = make([]bool, len(ms))
	for i, m := range ms {
		if !matched[i] || !IsTwoEdgeMetapath(m) {
			continue
		}
		if b := twoEdgeBound(g, m, budget-bound); bound+b <= budget {
			counted[i], bound = true, bound+b
		}
	}
	return counted, bound
}

// twoEdgePart counts the two-edge metapath m on g into the single-metagraph
// part index MatchParts counts it into: the runs above each node, laid
// out, each m_x its run's sum. A graph on which m could pair more postings
// than the runs' int32 positions hold is refused before anything is
// allocated. m must be a two-edge metapath (IsTwoEdgeMetapath).
func twoEdgePart(g *graph.Graph, m *metagraph.Metagraph) (*Index, error) {
	b := twoEdgeBound(g, m, math.MaxInt32/2)
	if b > math.MaxInt32/2 {
		return nil, fmt.Errorf("index: metagraph %v: more than %d postings on one graph", m, math.MaxInt32)
	}
	s := section{numMeta: 1}
	s.up.post = make([]posting, 0, b)
	s.up.addTwoEdge(g, m, 0)
	return s.index(), nil
}

// addTwoEdge appends the runs above each node of the two-edge metapath m
// on g, as metagraph slot, to u, and names slot among the metagraphs whose
// counts layout derives, with a divisor of 1: m_x = Σ_y m_xy. slot must be
// above every metagraph u.div names.
func (u *upperRuns) addTwoEdge(g *graph.Graph, m *metagraph.Metagraph, slot int32) {
	u.div = append(u.div, divisor{slot, 1})
	end, mid, _ := twoEdgeTypes(m)
	if nt := graph.TypeID(g.NumTypes()); end < 0 || end >= nt || mid < 0 || mid >= nt {
		return
	}
	var mg merger
	var above [][]graph.NodeID // x's lists, cut to their nodes above x
	for _, x := range g.NodesOfType(end) {
		above = above[:0]
		for _, b := range g.NeighborsOfType(x, mid) {
			l := g.NeighborsOfType(b, end)
			if i, _ := slices.BinarySearch(l, x); i+1 < len(l) { // l holds x
				above = append(above, l[i+1:])
			}
		}
		u.post = mg.merge(u.post, above)
		u.end(x, slot)
	}
}

// merger merges sorted lists one at a time into what it merged so far,
// with two scratch buffers it reuses from merge to merge, one read while
// the other is written.
type merger struct {
	acc [2][]posting
}

// merge appends to dst the nodes of the lists ls, ascending, each once
// with the number of lists that hold it.
func (mg *merger) merge(dst []posting, ls [][]graph.NodeID) []posting {
	if len(ls) == 0 {
		return dst
	}
	var acc []posting
	for i, l := range ls[:len(ls)-1] {
		mg.acc[i%2] = mergeUp(mg.acc[i%2][:0], acc, l)
		acc = mg.acc[i%2]
	}
	return mergeUp(dst, acc, ls[len(ls)-1])
}

// mergeUp appends to dst the merge of acc, nodes with their counts so far,
// and list, each of whose nodes counts 1.
func mergeUp(dst, acc []posting, list []graph.NodeID) []posting {
	i, j := 0, 0
	for i < len(acc) && j < len(list) {
		switch a, y := acc[i], list[j]; {
		case a.node < y:
			dst, i = append(dst, a), i+1
		case y < a.node:
			dst, j = append(dst, posting{y, 1}), j+1
		default:
			dst, i, j = append(dst, posting{y, a.count + 1}), i+1, j+1
		}
	}
	dst = append(dst, acc[i:]...)
	for _, y := range list[j:] {
		dst = append(dst, posting{y, 1})
	}
	return dst
}
