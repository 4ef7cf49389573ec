package index

import (
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metagraph"
)

// Rooted counting. Learning w* reads only the rows of its examples
// (core.TrainKeys), so the rows of a metagraph nobody has matched yet are
// counted at those nodes alone. An instance holds a node once, on one
// position, so m_x[i] sums, over the automorphism orbits of M_i's symmetric
// positions, the instances with x on a position of the orbit; and the
// instances with x somewhere on an orbit are exactly those with x on any
// one position r of it, up to the automorphisms fixing r. match.Rooted
// enumerates them once each: SymISO with r pinned to x, under the symmetry
// conditions of r's stabilizer. Each instance found there also holds every
// pair (x, y) whose y sits on a position symmetric to r, so the run at x
// counts m_xy for every partner y at once. The counts are Eq. 1–2's, term
// by term: a full match of M_i holds the same rows at these keys.

// Keys names rows of an index: the node rows of Nodes and the pair rows of
// Pairs, each ascending without repeats, both nodes of every pair among
// Nodes.
type Keys struct {
	Nodes []graph.NodeID
	Pairs []PairKey
}

// Select returns the index holding only the rows keys names that ix holds:
// it spans the same metagraphs. Each run of a pair's smaller node x is cut
// to the partners the pairs of x name, and every node of Nodes keeps its
// row, on the headers of its runs however few partners they keep. The
// two-edge metapaths ix serves from its graph keep every row: the graph
// holds them, and holding them costs nothing.
func (ix *Index) Select(keys Keys) *Index {
	s := section{numMeta: ix.numMeta}
	rs := &ix.flat
	for _, v := range keys.Nodes {
		lo, hi := rs.runs(v)
		for _, h := range rs.head[lo:hi] {
			s.up.mx = append(s.up.mx, nodeCount{v, h})
		}
	}
	for pairs := keys.Pairs; len(pairs) > 0; {
		x, _ := pairs[0].Nodes()
		n := 1 // the pairs of x: contiguous, ascending by the larger node
		for n < len(pairs) && pairs[n]>>32 == pairs[0]>>32 {
			n++
		}
		lo, hi := rs.runs(x)
		for r := lo; r < hi; r++ {
			post := rs.postings(r)
			for _, k := range pairs[:n] {
				_, y := k.Nodes()
				i, ok := slices.BinarySearchFunc(post, y, comparePosting)
				if ok {
					s.up.post = append(s.up.post, post[i])
				}
				post = post[i:]
			}
			s.up.end(x, rs.head[r].Meta)
		}
		pairs = pairs[n:]
	}
	out := s.index()
	out.paths, out.g = ix.paths, ix.g
	return out
}

// RootedParts counts the rows keys names of every metagraph of ms on g into
// its own single-metagraph index, fanned out as Count fans out, with one
// private SymISO and one scratch per goroutine. Part i holds, at each key,
// the row Count's part i holds there: a two-edge metapath's part is
// Count's, which serves every row from g and counts nothing.
func RootedParts(g *graph.Graph, ms []*metagraph.Metagraph, keys Keys) []*Index {
	return countParts(g, ms, func(c *counter, s *match.SymISO, m *metagraph.Metagraph) *Index { return c.rooted(m, s, keys) })
}

// rooted builds the part index of m holding the rows keys names: it runs
// one rooted enumeration per node of keys and orbit of symmetric positions,
// and reads the node's row and its pair rows off the same run.
func (c *counter) rooted(m *metagraph.Metagraph, matcher *match.SymISO, keys Keys) *Index {
	partners, auts := m.SymmetricPartners(), m.Automorphisms()
	var roots []int // one position per orbit of the symmetric positions
	var seen uint16
	for p, sym := range partners {
		if sym == 0 || seen>>p&1 != 0 {
			continue
		}
		for _, s := range auts {
			seen |= 1 << s[p]
		}
		roots = append(roots, p)
	}
	runs := make([]*match.Rooted, len(roots)) // planned on first use
	s := section{numMeta: 1}
	for _, v := range keys.Nodes {
		var n uint64
		c.touched = c.touched[:0]
		for k, r := range roots {
			if runs[k] == nil {
				runs[k] = matcher.Root(m, r)
			}
			runs[k].Sets(v, func(s match.Set) bool {
				n += c.addRooted(s, partners[r], v)
				return true
			})
		}
		if n > 0 {
			s.up.count(v, 0, n)
		}
		// The pairs whose smaller node is v: keys of one first node are
		// contiguous, ascending by the second.
		lo, _ := slices.BinarySearch(keys.Pairs, PairKey(uint64(uint32(v))<<32))
		for _, k := range keys.Pairs[lo:] {
			x, y := k.Nodes()
			if x != v {
				break
			}
			if int(y) < len(c.counts) && c.counts[y] > 0 {
				s.up.add(v, y, 0, c.counts[y])
			}
		}
		s.up.end(v, 0)
		for _, u := range c.touched {
			c.counts[u] = 0
		}
	}
	return s.index()
}

// addRooted counts one set of a run that pins v to a position whose
// symmetric positions are sym, and returns the instances it holds. Each
// partner of v gains what counter.add gives the pair: the whole set on a
// symmetric position outside P, the subsets holding it when it is one of F
// and P is symmetric to v's position.
func (c *counter) addRooted(s match.Set, sym uint16, v graph.NodeID) uint64 {
	var in uint16
	for _, p := range s.P {
		in |= 1 << p
	}
	all := gain(len(s.F), len(s.P), 0, v)
	for q := sym &^ in; q != 0; q &= q - 1 {
		c.node(s.A[bits.TrailingZeros16(q)], all)
	}
	if sym&in != 0 {
		one := gain(len(s.F)-1, len(s.P)-1, 0, MakePairKey(v, s.F[0]))
		for _, u := range s.F {
			c.node(u, one)
		}
	}
	return all
}
