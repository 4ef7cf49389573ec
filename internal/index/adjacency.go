package index

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// The query-major partner adjacency. The online phase (Fig. 3) scores every
// node of Partners(q); looking each candidate's m_v and m_qv up by key costs
// two binary searches per candidate, which is where a ranked query's time
// went. The adjacency stores, per node, its ascending partner list with the
// position of each pair's row in the pair arena beside it, and a dense
// per-node position of every m_v row in the node arena — so a scan follows
// stored positions and searches nothing.
//
// It is derived from the key slices and never persisted. Whoever publishes
// an index to readers builds it first (BuildAdjacency); WithPatch then
// carries it from epoch to epoch, so no reader of a published index ever
// pays the O(pairs) build. An index nobody finished builds it on first use.

// span is the position of one row in an entry arena: ent[lo:hi] of the base
// table's arena or, when lo is negative, ent[^lo:hi] of the patch overlay's.
// The zero span is the empty row.
type span struct{ lo, hi int32 }

// spanAt returns the span of row r of c, marked as an overlay row if ovl.
func spanAt[K cmp.Ordered](c *csr[K], r int, ovl bool) span {
	if ovl {
		return span{^c.off[r], c.off[r+1]}
	}
	return span{c.off[r], c.off[r+1]}
}

// of resolves the span against a table's two arenas.
func (s span) of(base, ovl []Entry) SparseVec {
	if s.lo >= 0 {
		return base[s.lo:s.hi]
	}
	return ovl[^s.lo:s.hi]
}

// adjRows is a partner CSR dense by node id: the partners of node v are
// node[off[v]:off[v+1]], ascending, and pair[s] is the position of the row
// of the pair {v, node[s]}. Nodes at or beyond len(off)-1 have no partners.
type adjRows struct {
	off  []int32
	node []graph.NodeID
	pair []span
}

// row returns the slot range of v's partners (empty when v has none).
func (r *adjRows) row(v graph.NodeID) (lo, hi int32) {
	if v < 0 || int(v)+1 >= len(r.off) {
		return 0, 0
	}
	return r.off[v], r.off[v+1]
}

// adjacency is the derived read structure of one Index.
type adjacency struct {
	// nodeRow[v] is the position of m_v (the empty span when v has none).
	// It covers every node key and every pair endpoint of the index.
	nodeRow []span
	// flat holds the rows derived from the base pair table. Every
	// WithPatch descendant shares it until Compact.
	flat adjRows
	// ovl holds the complete replacement rows of the endpoints of the
	// overlay's pair keys (all other rows are empty): the base partners
	// merged with the overlay's, each slot referring to whichever arena
	// holds that pair's row now. A node that is no such endpoint has no
	// shadowed pair row, so its flat row is still exact.
	ovl adjRows
}

// lazyAdjacency holds an index's adjacency once someone built it.
type lazyAdjacency struct {
	mu sync.Mutex // serializes builders
	p  atomic.Pointer[adjacency]
}

// BuildAdjacency derives the partner adjacency now, so that no later read
// has to. Writers call it on an index before handing it to readers; it is
// idempotent and safe for concurrent use.
func (ix *Index) BuildAdjacency() { ix.adjacency() }

// HasAdjacency reports whether the adjacency is already built, that is,
// whether ranked reads on ix are free of any set-up work.
func (ix *Index) HasAdjacency() bool { return ix.adj.p.Load() != nil }

func (ix *Index) adjacency() *adjacency {
	if a := ix.adj.p.Load(); a != nil {
		return a
	}
	ix.adj.mu.Lock()
	defer ix.adj.mu.Unlock()
	if a := ix.adj.p.Load(); a != nil {
		return a
	}
	a := overlayAdjacency(flatRows(&ix.mxy, false), ix)
	ix.adj.p.Store(a)
	return a
}

// flatRows derives partner rows from sorted pair keys in linear time: one
// pass counts each endpoint's partners, a prefix sum turns the counts into
// offsets, and a second pass drops every pair into both endpoints' rows.
// For a fixed node x the sorted (min, max) key order emits the partners
// below x first (ascending, while x is the max endpoint) and those above x
// after (ascending, while x is the min endpoint), so every row comes out
// sorted without a per-row sort. ovl says which arena the rows of pairs
// live in.
func flatRows(table *csr[PairKey], ovl bool) adjRows {
	pairs := table.keys
	if len(pairs) == 0 {
		return adjRows{}
	}
	n := 0
	for _, k := range pairs {
		if _, y := k.Nodes(); int(y) >= n {
			n = int(y) + 1
		}
	}
	off := make([]int32, n+1)
	for _, k := range pairs {
		x, y := k.Nodes()
		off[x+1]++
		off[y+1]++
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	rows := adjRows{
		off:  off,
		node: make([]graph.NodeID, off[n]),
		pair: make([]span, off[n]),
	}
	cur := slices.Clone(off[:n])
	for r, k := range pairs {
		x, y := k.Nodes()
		at := spanAt(table, r, ovl)
		rows.node[cur[x]], rows.pair[cur[x]] = y, at
		cur[x]++
		rows.node[cur[y]], rows.pair[cur[y]] = x, at
		cur[y]++
	}
	return rows
}

// overlayAdjacency completes the adjacency of ix from the flat rows of its
// base pair table: the node rows, and the replacement rows its overlay (if
// any) calls for. The cost is linear in the node id range plus the rows of
// the overlay's endpoints — never in the number of base pairs.
func overlayAdjacency(flat adjRows, ix *Index) *adjacency {
	a := &adjacency{flat: flat}
	fresh := flatRows(&ix.ovlMxy, true)

	n := max(len(flat.off), len(fresh.off)) - 1
	for _, keys := range [][]graph.NodeID{ix.mx.keys, ix.ovlMx.keys} {
		if len(keys) > 0 {
			n = max(n, int(keys[len(keys)-1])+1)
		}
	}
	if n <= 0 {
		return a
	}
	a.nodeRow = make([]span, n)
	for r, v := range ix.mx.keys {
		a.nodeRow[v] = spanAt(&ix.mx, r, false)
	}
	for r, v := range ix.ovlMx.keys {
		a.nodeRow[v] = spanAt(&ix.ovlMx, r, true)
	}
	if len(fresh.off) == 0 {
		return a
	}

	// Merge each endpoint's flat row with its fresh one; both ascend by
	// partner, and on a shared partner the overlay's pair row shadows the
	// base's.
	a.ovl.off = make([]int32, len(fresh.off))
	for v := graph.NodeID(0); int(v)+1 < len(fresh.off); v++ {
		j, jEnd := fresh.off[v], fresh.off[v+1]
		if j < jEnd {
			i, iEnd := flat.row(v)
			for i < iEnd || j < jEnd {
				switch {
				case j == jEnd || (i < iEnd && flat.node[i] < fresh.node[j]):
					a.ovl.node = append(a.ovl.node, flat.node[i])
					a.ovl.pair = append(a.ovl.pair, flat.pair[i])
					i++
				default:
					if i < iEnd && flat.node[i] == fresh.node[j] {
						i++
					}
					a.ovl.node = append(a.ovl.node, fresh.node[j])
					a.ovl.pair = append(a.ovl.pair, fresh.pair[j])
					j++
				}
			}
		}
		a.ovl.off[v+1] = int32(len(a.ovl.node))
	}
	return a
}

// Candidates is the adjacency row of one query node: the nodes the online
// phase ranks, each with its metagraph vectors one stored position away.
type Candidates struct {
	// Nodes lists the partners in ascending order. Shared; do not modify.
	Nodes []graph.NodeID

	pair    []span
	nodeRow []span
	ix      *Index
}

// Candidates returns the partners of q together with the positions of
// their vectors. Allocation-free and search-free once the adjacency is
// built.
func (ix *Index) Candidates(q graph.NodeID) Candidates {
	a := ix.adjacency()
	rows := &a.ovl
	lo, hi := rows.row(q)
	if lo == hi {
		rows = &a.flat
		lo, hi = rows.row(q)
	}
	return Candidates{Nodes: rows.node[lo:hi], pair: rows.pair[lo:hi], nodeRow: a.nodeRow, ix: ix}
}

// NodeVec returns m_v of candidate i (v = Nodes[i]): the entries
// Index.NodeVec(v) finds by key.
func (c Candidates) NodeVec(i int) SparseVec {
	return c.nodeRow[c.Nodes[i]].of(c.ix.mx.ent, c.ix.ovlMx.ent)
}

// PairVec returns m_qv of candidate i (v = Nodes[i]): the entries
// Index.PairVec(q, v) finds by key.
func (c Candidates) PairVec(i int) SparseVec {
	return c.pair[i].of(c.ix.mxy.ent, c.ix.ovlMxy.ent)
}
