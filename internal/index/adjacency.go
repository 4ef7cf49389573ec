package index

import (
	"cmp"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/graph"
)

// The partner runs: the index's one store of m_xy. The online phase
// (Fig. 3) scores every node v of Partners(q) by Def. 3, and what it reads
// per candidate is m_qv · w. A learned w is sparse (Fig. 4), so most
// coordinates of m_qv add an exact +0, and a partner reached through
// zero-weight metagraphs alone scores 0 and is dropped. The index therefore
// stores, per node q, one run per metagraph m that q takes part in, in
// ascending metagraph order: the ascending postings {v, raw count m_qv[m]}
// of every v with m_qv[m] > 0. A ranked read walks only the runs whose
// weight is non-zero and adds count·w[m] into an accumulator by node id
// (Accumulate) — the term-at-a-time evaluation an inverted index uses to
// read only the terms a query weighs, the terms being metagraphs. A dense
// per-node position of every m_v row serves the scans that have no
// precomputed denominators (NodeDots, Accumulator.NodeVec).
//
// The sums are bit-identical to SparseVec.Dot of each pair row: a skipped
// term would add +0, which leaves every sum the scan can reach unchanged;
// the others are added in ascending metagraph order, the order Dot uses;
// and a partner with no weighted term is exactly the one Dot scores 0.
//
// Each m_xy[m] is a posting in a run of x and one in a run of y. Pair rows
// become runs only in buildRuns and runs become pair rows only in pairRows.

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
// post[off[r]:off[r+1]], ascending by node, never empty. Nodes at or beyond
// len(first)-1 have no runs, and the last node below it has some, so equal
// runs are laid out identically however they were built.
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

// comparePosting orders a posting against a node id.
func comparePosting(p posting, v graph.NodeID) int { return cmp.Compare(p.node, v) }

// runsOf returns the runs that hold q's partners now: q's replacement runs
// when it has any, its flat runs otherwise.
func (ix *Index) runsOf(q graph.NodeID) (rs *adjRuns, lo, hi int32) {
	if lo, hi := ix.ovl.runs(q); lo < hi {
		return &ix.ovl, lo, hi
	}
	lo, hi = ix.flat.runs(q)
	return &ix.flat, lo, hi
}

// buildRuns lays out the runs of a pair table in linear passes: a radix
// sort of the table's entries by metagraph, then by endpoint.
//
//   - Counting gives each node's first posting and each metagraph's first
//     entry, counted in slot m, or in its rank among the Metas present
//     when there are no more entries than the largest Meta: nothing is
//     sized by a Meta alone, which a decoded stream could claim.
//   - The entries are partitioned by metagraph, each part in key order.
//   - Metagraph after metagraph, every entry is appended to both of its
//     endpoints' postings. A node's cursor thus runs through its postings
//     one metagraph after the other, so its runs come out ascending by
//     metagraph, and within one ascending by partner: the sorted (min, max)
//     key order lists a node's partners below it first (ascending, while it
//     is the max endpoint) and those above it after.
//   - After each metagraph, a node whose cursor moved (checked over all
//     nodes, or a small part's endpoints) has a run of it, starting where
//     its previous run ended. The starts are then sorted by node.
//
// Each node's postings are contiguous and so are its runs, so a run ends
// where the next one starts. The scatter writes one node stream per node,
// not one per (node, metagraph), and nothing dense in both is allocated.
func buildRuns(table *csr[PairKey]) adjRuns {
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
	ent, metas := table.ent, []int32(nil) // slot s counts metagraph metas[s], or s if nil
	slots := int(slices.MaxFunc(ent, compareEntryMeta).Meta) + 1
	if slots > len(ent) {
		metas = make([]int32, len(ent))
		for i, e := range ent {
			metas[i] = e.Meta
		}
		slices.Sort(metas)
		metas = slices.Compact(metas)
		ent = slices.Clone(ent)
		for i, e := range ent {
			s, _ := slices.BinarySearch(metas, e.Meta)
			ent[i].Meta = int32(s)
		}
		slots = len(metas)
	}
	bySlot := make([]int32, slots+1) // each slot's first entry, then its cursor
	for _, e := range ent {
		bySlot[e.Meta+1]++
	}
	for i := 1; i <= slots; i++ {
		bySlot[i] += bySlot[i-1]
	}

	type pairEntry struct {
		x, y  graph.NodeID
		count uint32
	}
	part := make([]pairEntry, len(ent))
	r, next := 0, table.off[1]
	x, y := pairs[0].Nodes()
	for i, e := range ent {
		if int32(i) == next { // rows are never empty
			r++
			next = table.off[r+1]
			x, y = pairs[r].Nodes()
		}
		at := bySlot[e.Meta]
		part[at] = pairEntry{x, y, e.Count}
		bySlot[e.Meta] = at + 1
	}

	type runStart struct {
		node graph.NodeID
		meta int32
		at   int32
	}
	var starts []runStart
	post := make([]posting, cur[n])
	end := slices.Clone(cur[:n]) // where each node's latest run ends
	closeRun := func(q graph.NodeID, m int32) {
		if c := cur[q]; c != end[q] {
			starts = append(starts, runStart{q, m, end[q]})
			end[q] = c
		}
	}
	lo := int32(0)
	for s, hi := range bySlot[:slots] { // bySlot[s] is now where part s ends
		m := int32(s)
		if metas != nil {
			m = metas[s]
		}
		for _, p := range part[lo:hi] {
			cx, cy := cur[p.x], cur[p.y]
			post[cx] = posting{p.y, p.count}
			post[cy] = posting{p.x, p.count}
			cur[p.x], cur[p.y] = cx+1, cy+1
		}
		if 2*int(hi-lo) >= n {
			for q := range graph.NodeID(n) {
				closeRun(q, m)
			}
		} else {
			for _, p := range part[lo:hi] {
				closeRun(p.x, m)
				closeRun(p.y, m)
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

// runRef is one run to lay out: its metagraph and its postings.
type runRef struct {
	meta int32
	post []posting
}

// layRuns lays out, node after node below n, the runs of(q, refs) appends
// to refs for node q, ascending by metagraph whatever order they are listed
// in. A first pass over the lists sizes the result exactly.
func layRuns(n int, of func(q graph.NodeID, refs []runRef) []runRef) adjRuns {
	var refs []runRef
	runs, posts, top := 0, 0, -1
	for q := range graph.NodeID(max(n, 0)) {
		if refs = of(q, refs[:0]); len(refs) > 0 {
			top = int(q)
		}
		runs += len(refs)
		for _, r := range refs {
			posts += len(r.post)
		}
	}
	if runs == 0 {
		return adjRuns{}
	}
	out := adjRuns{
		first: make([]int32, top+2),
		meta:  make([]int32, 0, runs),
		off:   make([]int32, 1, runs+1),
		post:  make([]posting, 0, posts),
	}
	for q := range graph.NodeID(top + 1) {
		refs = of(q, refs[:0])
		if !slices.IsSortedFunc(refs, compareRunMeta) {
			slices.SortFunc(refs, compareRunMeta)
		}
		for _, r := range refs {
			out.meta = append(out.meta, r.meta)
			out.post = append(out.post, r.post...)
			out.off = append(out.off, int32(len(out.post)))
		}
		out.first[q+1] = int32(len(out.meta))
	}
	return out
}

// compareRunMeta orders runs by metagraph.
func compareRunMeta(a, b runRef) int { return cmp.Compare(a.meta, b.meta) }

// relaid lays out the runs ix reads now, through its overlay, with every
// metagraph m renumbered meta(m) or dropped where that is negative.
func (ix *Index) relaid(meta func(int32) int32) adjRuns {
	return layRuns(max(len(ix.flat.first), len(ix.ovl.first))-1, func(q graph.NodeID, refs []runRef) []runRef {
		rs, lo, hi := ix.runsOf(q)
		for r := lo; r < hi; r++ {
			if m := meta(rs.meta[r]); m >= 0 {
				refs = append(refs, runRef{m, rs.postings(r)})
			}
		}
		return refs
	})
}

// overlay returns the replacement runs of ix with the gain runs added. An
// endpoint v of a gain gets its current runs merged with its gain runs,
// metagraph by metagraph and partner by partner, the counts of a partner
// both hold summed (see addCount); every other node keeps its replacement
// runs, if any. The cost is linear in the node id range plus the runs of
// the endpoints — never in the number of pairs.
func (ix *Index) overlay(gain adjRuns) (adjRuns, error) {
	if len(gain.meta) == 0 {
		return ix.ovl, nil
	}
	n := max(len(ix.ovl.first), len(gain.first)) - 1
	out := adjRuns{first: make([]int32, n+1), off: []int32{0}}
	// end closes a run of metagraph m at the postings appended since the
	// last one.
	end := func(m int32) {
		out.meta, out.off = append(out.meta, m), append(out.off, int32(len(out.post)))
	}
	for v := range graph.NodeID(n) {
		base, blo, bhi := ix.runsOf(v)
		glo, ghi := gain.runs(v)
		if glo == ghi { // not an endpoint: only its replacement runs stand
			base = &ix.ovl
			blo, bhi = ix.ovl.runs(v)
		}
		for blo < bhi || glo < ghi {
			switch {
			case glo == ghi || (blo < bhi && base.meta[blo] < gain.meta[glo]):
				out.post = append(out.post, base.postings(blo)...)
				end(base.meta[blo])
				blo++
			case blo == bhi || gain.meta[glo] < base.meta[blo]:
				out.post = append(out.post, gain.postings(glo)...)
				end(gain.meta[glo])
				glo++
			default:
				m, was, now := gain.meta[glo], base.postings(blo), gain.postings(glo)
				for len(was) > 0 || len(now) > 0 {
					switch {
					case len(now) == 0 || (len(was) > 0 && was[0].node < now[0].node):
						out.post, was = append(out.post, was[0]), was[1:]
					case len(was) == 0 || now[0].node < was[0].node:
						out.post, now = append(out.post, now[0]), now[1:]
					default:
						c, err := addCount(was[0].count, now[0].count, m, MakePairKey(v, now[0].node))
						if err != nil {
							return adjRuns{}, err
						}
						out.post, was, now = append(out.post, posting{now[0].node, c}), was[1:], now[1:]
					}
				}
				end(m)
				blo, glo = blo+1, glo+1
			}
		}
		out.first[v+1] = int32(len(out.meta))
	}
	return out, nil
}

// pairRows walks the runs back out into pair rows, in key order. The rows
// of q are the postings above q in its runs, merged by partner; each comes
// out ascending by metagraph, as q's runs are. The row passed to yield is
// reused by the next call.
func (ix *Index) pairRows(yield func(k PairKey, row []Entry)) {
	type head struct {
		meta int32
		post []posting // never empty
	}
	var heads []head
	var row []Entry
	for q := range graph.NodeID(len(ix.spans)) {
		rs, lo, hi := ix.runsOf(q)
		for r := lo; r < hi; r++ {
			post := rs.postings(r)
			if i, _ := slices.BinarySearchFunc(post, q, comparePosting); i < len(post) {
				heads = append(heads, head{rs.meta[r], post[i:]})
			}
		}
		for len(heads) > 0 {
			v := heads[0].post[0].node // the smallest partner left
			for _, h := range heads[1:] {
				v = min(v, h.post[0].node)
			}
			row = row[:0]
			spent := false
			for i := range heads {
				if h := &heads[i]; h.post[0].node == v {
					row = append(row, Entry{h.meta, h.post[0].count})
					h.post = h.post[1:]
					spent = spent || len(h.post) == 0
				}
			}
			if spent {
				heads = slices.DeleteFunc(heads, func(h head) bool { return len(h.post) == 0 })
			}
			yield(MakePairKey(q, v), row)
		}
	}
}

// Partners returns the nodes that co-occur symmetrically with x in at least
// one instance, in ascending order: the union of x's runs. The ranked read
// does not call it (see Accumulate); it allocates the union.
func (ix *Index) Partners(x graph.NodeID) []graph.NodeID {
	rs, lo, hi := ix.runsOf(x)
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
	slot  []accSlot
	gen   uint32
	spans []span
	ix    *Index
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
// is valid until Release; once the pooled accumulator has grown to the
// index's node span, a scan allocates nothing.
func (ix *Index) Accumulate(q graph.NodeID, w []float64) *Accumulator {
	acc := accumulators.Get().(*Accumulator)
	if len(acc.slot) < len(ix.spans) {
		acc.slot = make([]accSlot, len(ix.spans))
	}
	if acc.gen++; acc.gen == 0 { // the stamps wrapped: no slot may look current
		clear(acc.slot)
		acc.gen = 1
	}
	acc.Query, acc.spans, acc.ix = q, ix.spans, ix
	slot, touched, gen, f := acc.slot, acc.Touched[:0], acc.gen, ix.f
	rs, lo, hi := ix.runsOf(q)
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
	if acc.Query < 0 || int(acc.Query) >= len(acc.spans) {
		return SparseVec{}
	}
	return acc.NodeVec(acc.Query)
}

// NodeVec returns m_v of a node v below the index's NodeSpan — every
// touched partner is: the entries Index.NodeVec(v) finds by key.
func (acc *Accumulator) NodeVec(v graph.NodeID) SparseVec {
	return SparseVec{acc.spans[v].of(acc.ix.mx.ent, acc.ix.ovlMx.ent), acc.ix.f}
}

// Release returns the accumulator to the pool. It must not be used
// afterwards.
func (acc *Accumulator) Release() {
	acc.spans, acc.ix = nil, nil
	accumulators.Put(acc)
}

// NodeSpan returns the length of the node id range the index names: one
// past the largest node key or partner.
func (ix *Index) NodeSpan() int { return len(ix.spans) }

// NodeDots returns m_v · w for every node id below NodeSpan, dense by id
// (0 for a node without a row): the half of every candidate's denominator
// that does not depend on the query. Every partner and every query node
// with partners indexes it in range.
func (ix *Index) NodeDots(w []float64) []float64 {
	dots := make([]float64, len(ix.spans))
	for v, s := range ix.spans {
		dots[v] = SparseVec{s.of(ix.mx.ent, ix.ovlMx.ent), ix.f}.Dot(w)
	}
	return dots
}

// Footprint is what an index holds resident, in bytes of slice contents:
// Tables the flat node table, Adjacency the flat runs — every m_xy — and
// the node-row positions, Overlay the patch overlay's node rows and
// replacement runs — what Compact folds away. OverlayRows counts the
// overlay's node rows.
type Footprint struct {
	Tables, Adjacency, Overlay int64
	OverlayRows                int
}

// Footprint sizes the index as it stands.
func (ix *Index) Footprint() Footprint {
	return Footprint{
		Tables:      csrBytes(&ix.mx),
		Adjacency:   sliceBytes(ix.spans) + ix.flat.bytes(),
		Overlay:     csrBytes(&ix.ovlMx) + ix.ovl.bytes(),
		OverlayRows: len(ix.ovlMx.keys),
	}
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
