package index

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/graph"
)

// The metagraph-major partner adjacency. The online phase (Fig. 3) scores
// every node v of Partners(q) by Def. 3, and what it reads per candidate is
// m_qv · w. A learned w is sparse (Fig. 4), so most coordinates of m_qv add
// an exact +0, and a partner reached through zero-weight metagraphs alone
// scores 0 and is dropped. The adjacency therefore stores, per node q, one
// run per metagraph m that q takes part in, in ascending metagraph order:
// the ascending postings {v, raw count m_qv[m]} of every v with
// m_qv[m] > 0. A ranked read walks only the runs whose weight is non-zero
// and adds count·w[m] into an accumulator by node id (Accumulate) — the
// term-at-a-time evaluation an inverted index uses to read only the terms a
// query weighs, the terms being metagraphs. A dense per-node position of
// every m_v row serves the scans that have no precomputed denominators
// (NodeDots, Accumulator.NodeVec).
//
// The sums are bit-identical to SparseVec.Dot of each pair row: a skipped
// term would add +0, which leaves every sum the scan can reach unchanged;
// the others are added in ascending metagraph order, the order Dot uses;
// and a partner with no weighted term is exactly the one Dot scores 0.
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

// posting is one partner v of a run (q, m) and the raw count m_qv[m].
type posting struct {
	node  graph.NodeID
	count uint32
}

// adjRuns is a partner CSR dense by node id and grouped by metagraph. The
// runs of node q are those numbered first[q] to first[q+1]-1, ascending by
// metagraph; run r is metagraph meta[r] with the postings
// post[off[r]:off[r+1]], ascending by node. Nodes at or beyond
// len(first)-1 have no runs.
type adjRuns struct {
	first []int32
	meta  []int32
	off   []int32 // len(meta)+1 whenever first is non-empty
	post  []posting
}

// runs returns the run range of q (empty when q has none).
func (r *adjRuns) runs(q graph.NodeID) (lo, hi int32) {
	if q < 0 || int(q)+1 >= len(r.first) {
		return 0, 0
	}
	return r.first[q], r.first[q+1]
}

// postings returns the postings of run i.
func (r *adjRuns) postings(i int32) []posting { return r.post[r.off[i]:r.off[i+1]] }

// adjacency is the derived read structure of one Index.
type adjacency struct {
	// nodeRow[v] is the position of m_v (the empty span when v has none).
	// It covers every node key and every pair endpoint of the index.
	nodeRow []span
	// flat holds the runs derived from the base pair table. Every
	// WithPatch descendant shares it (and the base table) until Compact.
	flat adjRuns
	// ovl holds the complete replacement runs of the endpoints of the
	// overlay's pair keys (all other nodes have none): the base postings of
	// every partner the overlay does not re-pair, merged with the overlay's.
	// A node that is no such endpoint has no shadowed pair row, so its flat
	// runs are still exact.
	ovl adjRuns
}

// runsOf returns the runs that hold q's partners now: q's replacement runs
// when it has any, its flat runs otherwise.
func (a *adjacency) runsOf(q graph.NodeID) (rs *adjRuns, lo, hi int32) {
	if lo, hi := a.ovl.runs(q); lo < hi {
		return &a.ovl, lo, hi
	}
	lo, hi = a.flat.runs(q)
	return &a.flat, lo, hi
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
	a := overlayAdjacency(buildRuns(&ix.mxy, ix.numMeta), ix)
	ix.adj.p.Store(a)
	return a
}

// buildRuns derives the runs of a pair table over numMeta metagraphs in
// linear passes: a radix sort of the table's entries by metagraph, then by
// endpoint.
//
//   - Counting gives each node's first posting and each metagraph's first
//     entry.
//   - The entries are partitioned by metagraph, each part in key order.
//   - Metagraph after metagraph, every entry is appended to both of its
//     endpoints' postings. A node's cursor thus runs through its postings
//     one metagraph after the other, so its runs come out ascending by
//     metagraph, and within one ascending by partner: the sorted (min, max)
//     key order lists a node's partners below it first (ascending, while it
//     is the max endpoint) and those above it after.
//   - After each metagraph, a node whose cursor moved has a run of it,
//     starting where its previous run ended. The starts, found
//     metagraph-major, are then sorted by node.
//
// Each node's postings are contiguous and so are its runs, so a run ends
// where the next one starts. The scatter writes one node stream per node,
// not one per (node, metagraph), and nothing dense in both is allocated;
// the cursor check costs one pass over the nodes per metagraph present.
func buildRuns(table *csr[PairKey], numMeta int) adjRuns {
	pairs := table.keys
	if len(pairs) == 0 {
		return adjRuns{}
	}
	n := 0
	for _, k := range pairs {
		if _, y := k.Nodes(); int(y) >= n {
			n = int(y) + 1
		}
	}
	cur := make([]int32, n+1) // each node's first posting, then its cursor
	for r, k := range pairs {
		x, y := k.Nodes()
		l := table.off[r+1] - table.off[r]
		cur[x+1] += l
		cur[y+1] += l
	}
	for i := 1; i <= n; i++ {
		cur[i] += cur[i-1]
	}
	byMeta := make([]int32, numMeta+1) // each metagraph's first entry, then its cursor
	for _, e := range table.ent {
		byMeta[e.Meta+1]++
	}
	for i := 1; i <= numMeta; i++ {
		byMeta[i] += byMeta[i-1]
	}

	type pairEntry struct {
		x, y  graph.NodeID
		count uint32
	}
	part := make([]pairEntry, len(table.ent))
	r, next := 0, table.off[1]
	x, y := pairs[0].Nodes()
	for i, e := range table.ent {
		if int32(i) == next { // rows are never empty
			r++
			next = table.off[r+1]
			x, y = pairs[r].Nodes()
		}
		at := byMeta[e.Meta]
		part[at] = pairEntry{x, y, e.Count}
		byMeta[e.Meta] = at + 1
	}

	type runStart struct {
		node graph.NodeID
		meta int32
		at   int32
	}
	var starts []runStart
	post := make([]posting, cur[n])
	end := slices.Clone(cur[:n]) // where each node's latest run ends
	lo := int32(0)
	for m, hi := range byMeta[:numMeta] { // byMeta[m] is now where part m ends
		if lo == hi {
			continue
		}
		for _, p := range part[lo:hi] {
			cx, cy := cur[p.x], cur[p.y]
			post[cx] = posting{p.y, p.count}
			post[cy] = posting{p.x, p.count}
			cur[p.x], cur[p.y] = cx+1, cy+1
		}
		for q, c := range cur[:n] {
			if c != end[q] {
				starts = append(starts, runStart{graph.NodeID(q), int32(m), end[q]})
				end[q] = c
			}
		}
		lo = hi
	}

	rs := adjRuns{
		first: make([]int32, n+1),
		meta:  make([]int32, len(starts)),
		off:   make([]int32, len(starts)+1),
		post:  post,
	}
	for _, s := range starts {
		rs.first[s.node+1]++
	}
	for i := 1; i <= n; i++ {
		rs.first[i] += rs.first[i-1]
	}
	at := slices.Clone(rs.first[:n])
	for _, s := range starts {
		rs.meta[at[s.node]], rs.off[at[s.node]] = s.meta, s.at
		at[s.node]++
	}
	rs.off[len(starts)] = int32(len(post))
	return rs
}

// overlayAdjacency completes the adjacency of ix from the runs of its base
// pair table: the node rows, and the replacement runs its overlay (if any)
// calls for. The cost is linear in the node id range (once per metagraph
// the overlay holds) plus the runs of the overlay's endpoints — never in
// the number of base pairs.
func overlayAdjacency(flat adjRuns, ix *Index) *adjacency {
	a := &adjacency{flat: flat}
	fresh := buildRuns(&ix.ovlMxy, ix.numMeta)

	n := max(len(flat.first), len(fresh.first)) - 1
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
	if len(fresh.first) == 0 {
		return a
	}

	// Merge each endpoint's flat runs with its fresh ones, metagraph by
	// metagraph: the overlay's pair row of (v, u) replaces the base's in
	// every metagraph, so the base postings of an overlay partner u go.
	ovl := &a.ovl
	ovl.first = make([]int32, len(fresh.first))
	ovl.off = []int32{0}
	repaired := make([]bool, n)
	mark := func(v graph.NodeID, on bool) {
		lo, hi := fresh.runs(v)
		for r := lo; r < hi; r++ {
			for _, p := range fresh.postings(r) {
				repaired[p.node] = on
			}
		}
	}
	emit := func(m int32) {
		if end := int32(len(ovl.post)); end > ovl.off[len(ovl.off)-1] {
			ovl.meta = append(ovl.meta, m)
			ovl.off = append(ovl.off, end)
		}
	}
	for v := graph.NodeID(0); int(v)+1 < len(fresh.first); v++ {
		flo, fhi := fresh.runs(v)
		if flo == fhi { // not an endpoint: the flat runs stand
			ovl.first[v+1] = int32(len(ovl.meta))
			continue
		}
		mark(v, true)
		blo, bhi := flat.runs(v)
		for blo < bhi || flo < fhi {
			switch {
			case flo == fhi || (blo < bhi && flat.meta[blo] < fresh.meta[flo]):
				for _, p := range flat.postings(blo) {
					if !repaired[p.node] {
						ovl.post = append(ovl.post, p)
					}
				}
				emit(flat.meta[blo])
				blo++
			case blo == bhi || fresh.meta[flo] < flat.meta[blo]:
				ovl.post = append(ovl.post, fresh.postings(flo)...)
				emit(fresh.meta[flo])
				flo++
			default:
				base, over := flat.postings(blo), fresh.postings(flo)
				for len(base) > 0 || len(over) > 0 {
					switch {
					case len(base) > 0 && repaired[base[0].node]:
						base = base[1:]
					case len(over) == 0 || (len(base) > 0 && base[0].node < over[0].node):
						ovl.post = append(ovl.post, base[0])
						base = base[1:]
					default:
						ovl.post = append(ovl.post, over[0])
						over = over[1:]
					}
				}
				emit(fresh.meta[flo])
				blo, flo = blo+1, flo+1
			}
		}
		mark(v, false)
		ovl.first[v+1] = int32(len(ovl.meta))
	}
	return a
}

// Partners returns the nodes that co-occur symmetrically with x in at least
// one instance, in ascending order: the union of x's runs. The ranked read
// does not call it (see Accumulate); it allocates the union.
func (ix *Index) Partners(x graph.NodeID) []graph.NodeID {
	rs, lo, hi := ix.adjacency().runsOf(x)
	if lo == hi {
		return nil
	}
	out := make([]graph.NodeID, 0, rs.off[hi]-rs.off[lo])
	for _, p := range rs.post[rs.off[lo]:rs.off[hi]] {
		out = append(out, p.node)
	}
	if hi-lo > 1 {
		slices.Sort(out)
		out = slices.Compact(out)
	}
	return out
}

// Accumulator holds one term-at-a-time scan of a query node q under a
// weight vector w: m_qv · w for every partner v reached through a metagraph
// of non-zero weight. Accumulators are pooled; Release returns one.
type Accumulator struct {
	// Query is the node scanned.
	Query graph.NodeID
	// Touched lists the partners the scan reached, each once, in the order
	// it first reached them. Every other partner of Query shares only
	// zero-weight metagraphs with it.
	Touched []graph.NodeID

	// slot holds a partial sum by node id. A slot belongs to this scan when
	// its stamp is gen, so a scan starts without clearing anything, and a
	// sum that stays 0 (a negative weight, a transform reading 0) still
	// marks its partner reached.
	slot    []accSlot
	gen     uint32
	nodeRow []span
	ix      *Index
}

// accSlot is one node's partial sum and the scan it belongs to.
type accSlot struct {
	sum float64
	gen uint32
}

var accumulators = sync.Pool{New: func() any { return new(Accumulator) }}

// Accumulate scans the runs of q whose metagraph w weighs (w[m] != 0),
// adding count·w[m] — the count read through the index's transform — into
// the partial sum of each posting's partner, runs in ascending metagraph
// order. Each sum then equals the pair row's SparseVec.Dot(w) bit for bit
// (see the note at the top of this file). The result comes from a pool and
// is valid until Release; once the adjacency is built and the pooled
// accumulator has grown to the index's node span, a scan allocates nothing.
func (ix *Index) Accumulate(q graph.NodeID, w []float64) *Accumulator {
	a := ix.adjacency()
	acc := accumulators.Get().(*Accumulator)
	if len(acc.slot) < len(a.nodeRow) {
		acc.slot = make([]accSlot, len(a.nodeRow))
	}
	if acc.gen++; acc.gen == 0 { // the stamps wrapped: no slot may look current
		clear(acc.slot)
		acc.gen = 1
	}
	acc.Query, acc.nodeRow, acc.ix = q, a.nodeRow, ix
	slot, touched, gen, f := acc.slot, acc.Touched[:0], acc.gen, ix.f
	rs, lo, hi := a.runsOf(q)
	for r := lo; r < hi; r++ {
		wm := w[rs.meta[r]]
		if wm == 0 {
			continue
		}
		for _, p := range rs.postings(r) {
			c := float64(p.count)
			if f != nil {
				c = f(c)
			}
			s := &slot[p.node]
			if s.gen != gen {
				*s = accSlot{0, gen}
				touched = append(touched, p.node)
			}
			s.sum += c * wm
		}
	}
	acc.Touched = touched
	return acc
}

// PairDot returns m_qv · w of a touched partner v.
func (acc *Accumulator) PairDot(v graph.NodeID) float64 { return acc.slot[v].sum }

// QueryVec returns m_q of the query node itself: the entries
// Index.NodeVec(Query) finds by key.
func (acc *Accumulator) QueryVec() SparseVec {
	if acc.Query < 0 || int(acc.Query) >= len(acc.nodeRow) {
		return SparseVec{}
	}
	return acc.NodeVec(acc.Query)
}

// NodeVec returns m_v of a node v below the index's NodeSpan — every
// touched partner is: the entries Index.NodeVec(v) finds by key.
func (acc *Accumulator) NodeVec(v graph.NodeID) SparseVec {
	return SparseVec{acc.nodeRow[v].of(acc.ix.mx.ent, acc.ix.ovlMx.ent), acc.ix.f}
}

// Release returns the accumulator to the pool. It must not be used
// afterwards.
func (acc *Accumulator) Release() {
	acc.nodeRow, acc.ix = nil, nil
	accumulators.Put(acc)
}

// NodeSpan returns the length of the node id range the index names: one
// past the largest node key or pair endpoint.
func (ix *Index) NodeSpan() int { return len(ix.adjacency().nodeRow) }

// NodeDots returns m_v · w for every node id below NodeSpan, dense by id
// (0 for a node without a row): the half of every candidate's denominator
// that does not depend on the query. Every partner and every query node
// with partners indexes it in range.
func (ix *Index) NodeDots(w []float64) []float64 {
	a := ix.adjacency()
	dots := make([]float64, len(a.nodeRow))
	for v, s := range a.nodeRow {
		dots[v] = SparseVec{s.of(ix.mx.ent, ix.ovlMx.ent), ix.f}.Dot(w)
	}
	return dots
}

// Footprint is what an index holds resident, in bytes of slice contents:
// Tables the flat by-key node and pair tables, Adjacency the runs and
// node-row positions derived from them (0 until built), Overlay the patch
// overlay's tables and replacement runs — what Compact folds away.
// OverlayRows counts the overlay's node and pair rows.
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
		fp.Overlay += a.ovl.bytes()
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

func (r *adjRuns) bytes() int64 {
	return sliceBytes(r.first) + sliceBytes(r.meta) + sliceBytes(r.off) + sliceBytes(r.post)
}
