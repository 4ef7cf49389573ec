package index

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/graph"
)

// The query-major partner adjacency. The online phase (Fig. 3) scores every
// node of Partners(q), and what it reads per candidate v is the row m_qv.
// The by-key pair table keeps the rows of the pairs (q, v > q) side by side
// — they share the high word of their key — but the row of a pair (v, q)
// with v < q sits among v's, at an address unrelated to q's other rows: one
// cache miss per partner below q. The adjacency stores, per node, its
// ascending partner list and, INLINE in slot order, a copy of the rows of
// the partners below it; the partners above it are read where the pair
// table already holds them contiguously. A scan of q therefore walks a
// handful of sequential streams and searches nothing. A dense per-node
// position of every m_v row serves the scans that have no precomputed
// denominators (NodeDots).
//
// It is derived from the tables and never persisted. Whoever publishes an
// index to readers builds it first (BuildAdjacency); WithPatch then carries
// it from epoch to epoch, so no reader of a published index ever pays the
// O(pairs) build. An index nobody finished builds it on first use.

// span is the position of one m_v row in the node table: ent[lo:hi] of the
// base arena or, when lo is negative, ent[^lo:hi] of the patch overlay's.
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
func (s span) of(base, ovl []Entry) []Entry {
	if s.lo >= 0 {
		return base[s.lo:s.hi]
	}
	return ovl[^s.lo:s.hi]
}

// adjRows is a partner CSR dense by node id, derived from one pair table.
// The partners of node v are node[off[v]:off[v+1]], ascending, and their
// pair rows come in two runs:
//
//   - the first inl[v+1]-inl[v] are inline: inline slot s (v's are numbered
//     from inl[v]) is ent[eoff[s]:eoff[s+1]];
//   - the rest are consecutive rows of the table, from row off[v]-inl[v] on.
//
// In rows derived straight from a table (flatRows) the inline run of v is
// its partners below v and the table run its partners above: the block of
// keys (v, ·), which the table already stores side by side. The slots before
// off[v] that are not inline number exactly the keys whose smaller endpoint
// lies below v, and that is the row the block starts at — nothing is stored
// to find it. Replacement rows (overlayAdjacency) are inline throughout: inl
// is off. Nodes at or beyond len(off)-1 have no partners.
type adjRows struct {
	off  []int32
	node []graph.NodeID
	inl  []int32
	eoff []int32 // len = inline slots + 1 whenever off is non-empty
	ent  []Entry
}

// row returns the slot range of v's partners (empty when v has none).
func (r *adjRows) row(v graph.NodeID) (lo, hi int32) {
	if v < 0 || int(v)+1 >= len(r.off) {
		return 0, 0
	}
	return r.off[v], r.off[v+1]
}

// candidates returns v's row over table, the pair table r was derived from.
func (r *adjRows) candidates(v graph.NodeID, table *csr[PairKey]) Candidates {
	lo, hi := r.row(v)
	if lo == hi {
		return Candidates{}
	}
	il, ih := r.inl[v], r.inl[v+1]
	c := Candidates{Nodes: r.node[lo:hi], eoff: r.eoff[il : ih+1], ent: r.ent}
	if tail := (hi - lo) - (ih - il); tail > 0 {
		c.tailOff, c.tailEnt = table.off[lo-il:][:tail+1], table.ent
	}
	return c
}

// adjacency is the derived read structure of one Index.
type adjacency struct {
	// nodeRow[v] is the position of m_v (the empty span when v has none).
	// It covers every node key and every pair endpoint of the index.
	nodeRow []span
	// flat holds the rows derived from the base pair table. Every
	// WithPatch descendant shares it (and the base table) until Compact.
	flat adjRows
	// ovl holds the complete replacement rows of the endpoints of the
	// overlay's pair keys (all other rows are empty): the base partners
	// merged with the overlay's, each slot carrying that pair's row as it
	// is now. A node that is no such endpoint has no shadowed pair row, so
	// its flat row is still exact.
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
	a := overlayAdjacency(flatRows(&ix.mxy), ix)
	ix.adj.p.Store(a)
	return a
}

// flatRows derives partner rows from a pair table in two linear passes, all
// of it presized. The first counts, per endpoint, its partners, how many of
// them lie below it and how many entries their rows hold; prefix sums turn
// the counts into each node's first slot, first inline slot and first
// inline entry. The second drops every pair into both endpoints' rows and
// copies its row behind the larger endpoint's cursor. For a fixed node x
// the sorted (min, max) key order emits the partners below x first
// (ascending, while x is the max endpoint) and those above x after
// (ascending, while x is the min endpoint), so every row comes out sorted,
// inline part first, without a per-row sort.
func flatRows(table *csr[PairKey]) adjRows {
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
	off, inl, ecur := make([]int32, n+1), make([]int32, n+1), make([]int32, n+1)
	for r, k := range pairs {
		x, y := k.Nodes()
		off[x+1]++
		off[y+1]++
		inl[y+1]++
		ecur[y+1] += table.off[r+1] - table.off[r]
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
		inl[i] += inl[i-1]
		ecur[i] += ecur[i-1]
	}
	rows := adjRows{
		off:  off,
		node: make([]graph.NodeID, off[n]),
		inl:  inl,
		eoff: make([]int32, inl[n]+1),
		ent:  make([]Entry, ecur[n]),
	}
	rows.eoff[inl[n]] = ecur[n]
	cur, icur := slices.Clone(off[:n]), slices.Clone(inl[:n])
	for r, k := range pairs {
		x, y := k.Nodes()
		rows.node[cur[x]] = y
		cur[x]++
		rows.node[cur[y]] = x
		cur[y]++
		at := ecur[y]
		rows.eoff[icur[y]] = at
		icur[y]++
		// Rows are an entry or two long: a loop beats a memmove call.
		for _, e := range table.ent[table.off[r]:table.off[r+1]] {
			rows.ent[at] = e
			at++
		}
		ecur[y] = at
	}
	return rows
}

// overlayAdjacency completes the adjacency of ix from the flat rows of its
// base pair table: the node rows, and the replacement rows its overlay (if
// any) calls for. The cost is linear in the node id range plus the rows of
// the overlay's endpoints — never in the number of base pairs.
func overlayAdjacency(flat adjRows, ix *Index) *adjacency {
	a := &adjacency{flat: flat}
	fresh := flatRows(&ix.ovlMxy)

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
	ovl := &a.ovl
	ovl.off = make([]int32, len(fresh.off))
	ovl.inl = ovl.off
	ovl.eoff = []int32{0}
	add := func(c Candidates, i int) {
		ovl.node = append(ovl.node, c.Nodes[i])
		ovl.ent = append(ovl.ent, c.pairRow(i)...)
		ovl.eoff = append(ovl.eoff, int32(len(ovl.ent)))
	}
	for v := graph.NodeID(0); int(v)+1 < len(fresh.off); v++ {
		if over := fresh.candidates(v, &ix.ovlMxy); len(over.Nodes) > 0 {
			base := flat.candidates(v, &ix.mxy)
			i, j := 0, 0
			for i < len(base.Nodes) || j < len(over.Nodes) {
				switch {
				case j == len(over.Nodes) || (i < len(base.Nodes) && base.Nodes[i] < over.Nodes[j]):
					add(base, i)
					i++
				default:
					if i < len(base.Nodes) && base.Nodes[i] == over.Nodes[j] {
						i++
					}
					add(over, j)
					j++
				}
			}
		}
		ovl.off[v+1] = int32(len(ovl.node))
	}
	return a
}

// Candidates is the adjacency row of one query node: the nodes the online
// phase ranks, each with its pair row in scan order.
type Candidates struct {
	// Query is the node the row belongs to.
	Query graph.NodeID
	// Nodes lists the partners in ascending order. Shared; do not modify.
	Nodes []graph.NodeID

	// The first len(eoff)-1 pair rows are ent[eoff[i]:eoff[i+1]]; the rest
	// are tailEnt[tailOff[j]:tailOff[j+1]], j counted from the first of them.
	eoff, tailOff []int32
	ent, tailEnt  []Entry

	nodeRow []span
	ix      *Index
}

// Candidates returns the partners of q together with their vectors.
// Allocation-free and search-free once the adjacency is built.
func (ix *Index) Candidates(q graph.NodeID) Candidates {
	a := ix.adjacency()
	c := a.ovl.candidates(q, nil) // replacement rows have no tail
	if len(c.Nodes) == 0 {
		c = a.flat.candidates(q, &ix.mxy)
	}
	c.Query, c.nodeRow, c.ix = q, a.nodeRow, ix
	return c
}

// QueryVec returns m_q of the query node itself: the entries
// Index.NodeVec(Query) finds by key.
func (c *Candidates) QueryVec() SparseVec {
	if c.Query < 0 || int(c.Query) >= len(c.nodeRow) {
		return SparseVec{}
	}
	return SparseVec{c.nodeRow[c.Query].of(c.ix.mx.ent, c.ix.ovlMx.ent), c.ix.f}
}

// NodeVec returns m_v of candidate i (v = Nodes[i]): the entries
// Index.NodeVec(v) finds by key.
func (c *Candidates) NodeVec(i int) SparseVec {
	return SparseVec{c.nodeRow[c.Nodes[i]].of(c.ix.mx.ent, c.ix.ovlMx.ent), c.ix.f}
}

// PairVec returns m_qv of candidate i (v = Nodes[i]): the entries
// Index.PairVec(q, v) finds by key.
func (c *Candidates) PairVec(i int) SparseVec { return SparseVec{c.pairRow(i), c.ix.f} }

// pairRow returns the raw row behind slot i.
func (c *Candidates) pairRow(i int) []Entry {
	if inl := len(c.eoff) - 1; i >= inl {
		i -= inl
		return c.tailEnt[c.tailOff[i]:c.tailOff[i+1]]
	}
	return c.ent[c.eoff[i]:c.eoff[i+1]]
}

// NodeSpan returns the length of the node id range the index names: one
// past the largest node key or pair endpoint.
func (ix *Index) NodeSpan() int { return len(ix.adjacency().nodeRow) }

// NodeDots returns m_v · w for every node id below NodeSpan, dense by id
// (0 for a node without a row): the half of every candidate's denominator
// that does not depend on the query. Every candidate and every query node
// with candidates indexes it in range.
func (ix *Index) NodeDots(w []float64) []float64 {
	a := ix.adjacency()
	dots := make([]float64, len(a.nodeRow))
	for v, s := range a.nodeRow {
		dots[v] = SparseVec{s.of(ix.mx.ent, ix.ovlMx.ent), ix.f}.Dot(w)
	}
	return dots
}

// Footprint is what an index holds resident, in bytes of slice contents:
// Tables the flat by-key node and pair tables, Adjacency the partner rows
// and node-row positions derived from them (0 until built), Overlay the
// patch overlay's tables and replacement partner rows — what Compact folds
// away. OverlayRows counts the overlay's node and pair rows.
type Footprint struct {
	Tables, Adjacency, Overlay int64
	OverlayRows                int
}

// Footprint sizes the index as it stands.
func (ix *Index) Footprint() Footprint {
	fp := Footprint{
		Tables:      csrBytes(&ix.mx) + csrBytes(&ix.mxy),
		Overlay:     csrBytes(&ix.ovlMx) + csrBytes(&ix.ovlMxy),
		OverlayRows: len(ix.ovlMx.keys) + len(ix.ovlMxy.keys),
	}
	if a := ix.adj.p.Load(); a != nil {
		fp.Adjacency = sliceBytes(a.nodeRow) + a.flat.bytes()
		fp.Overlay += a.ovl.bytes() - sliceBytes(a.ovl.inl) // inl is off there
	}
	return fp
}

func sliceBytes[T any](s []T) int64 {
	var z T
	return int64(len(s)) * int64(unsafe.Sizeof(z))
}

func csrBytes[K cmp.Ordered](c *csr[K]) int64 {
	return sliceBytes(c.keys) + sliceBytes(c.off) + sliceBytes(c.ent)
}

func (r *adjRows) bytes() int64 {
	return sliceBytes(r.off) + sliceBytes(r.node) + sliceBytes(r.inl) + sliceBytes(r.eoff) + sliceBytes(r.ent)
}
