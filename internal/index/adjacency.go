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
// become runs only in buildRuns; a section read off the wire holds each
// node's runs above it, and upperRuns.layout (io.go) adds the postings
// below. Nothing but the tests walks runs back out into pair rows.

// span is the position of one m_v row in the node table: ent[lo:hi] of its
// arena. The zero span is the empty row.
type span struct{ lo, hi int32 }

// of resolves the span against the node table's arena.
func (s span) of(ent []Entry) []Entry { return ent[s.lo:s.hi] }

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

// appendRuns appends q's runs to refs, every metagraph m renumbered
// meta(m) or dropped where that is negative.
func (r *adjRuns) appendRuns(refs []runRef, q graph.NodeID, meta func(int32) int32) []runRef {
	lo, hi := r.runs(q)
	for i := lo; i < hi; i++ {
		if m := meta(r.meta[i]); m >= 0 {
			refs = append(refs, runRef{m, r.postings(i)})
		}
	}
	return refs
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

	l := newRunLayout(cur, make([]posting, cur[n]))
	lo := int32(0)
	for s, hi := range bySlot[:slots] { // bySlot[s] is now where part s ends
		m := int32(s)
		if metas != nil {
			m = metas[s]
		}
		for _, p := range part[lo:hi] {
			cx, cy := l.cur[p.x], l.cur[p.y]
			l.post[cx] = posting{p.y, p.count}
			l.post[cy] = posting{p.x, p.count}
			l.cur[p.x], l.cur[p.y] = cx+1, cy+1
		}
		if 2*int(hi-lo) >= n {
			l.closeAll(m)
		} else {
			for _, p := range part[lo:hi] {
				l.close(p.x, m)
				l.close(p.y, m)
			}
		}
		lo = hi
	}
	return l.runs()
}

// runLayout places postings node by node, each node's through a cursor
// that runs through its postings one metagraph after the other, and
// records a run wherever a node's cursor moved during a metagraph.
type runLayout struct {
	cur    []int32 // each node's cursor, then the end of its postings
	end    []int32 // where each node's latest run ends
	starts []runStart
	post   []posting
}

// runStart is one run: its node, metagraph and first posting.
type runStart struct {
	node graph.NodeID
	meta int32
	at   int32
}

// newRunLayout lays out post, node v's postings starting at cur[v] (and
// the last node's ending at cur[len(cur)-1]).
func newRunLayout(cur []int32, post []posting) *runLayout {
	return &runLayout{cur: cur, end: slices.Clone(cur[:len(cur)-1]), post: post}
}

// close records q's run of metagraph m if its cursor moved since its last
// run.
func (l *runLayout) close(q graph.NodeID, m int32) {
	if c := l.cur[q]; c != l.end[q] {
		l.starts = append(l.starts, runStart{q, m, l.end[q]})
		l.end[q] = c
	}
}

// closeAll closes metagraph m for every node.
func (l *runLayout) closeAll(m int32) {
	for q := range graph.NodeID(len(l.end)) {
		l.close(q, m)
	}
}

// runs returns the runs recorded, sorted by node: each node's are
// ascending by metagraph, as its metagraphs were closed. Each node's
// postings are contiguous and so are its runs, so a run ends where the
// next one starts.
func (l *runLayout) runs() adjRuns {
	n := len(l.end)
	rs := adjRuns{
		first: make([]int32, n+1),
		meta:  make([]int32, len(l.starts)),
		off:   make([]int32, len(l.starts)+1),
		post:  l.post,
	}
	for _, s := range l.starts {
		rs.first[s.node+1]++
	}
	for i := 1; i <= n; i++ {
		rs.first[i] += rs.first[i-1]
	}
	at := slices.Clone(rs.first[:n])
	for _, s := range l.starts {
		rs.meta[at[s.node]], rs.off[at[s.node]] = s.meta, s.at
		at[s.node]++
	}
	rs.off[len(l.starts)] = int32(len(l.post))
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

// relaid lays out the runs of ix with every metagraph m renumbered meta(m)
// or dropped where that is negative.
func (ix *Index) relaid(meta func(int32) int32) adjRuns {
	return layRuns(len(ix.flat.first)-1, func(q graph.NodeID, refs []runRef) []runRef {
		return ix.flat.appendRuns(refs, q, meta)
	})
}

// plus returns r with the runs of gain added: each endpoint v of gain gets
// its runs in r merged with its gain runs, metagraph by metagraph and
// partner by partner, the counts of a partner both hold summed (see
// addCount), and the runs of the nodes between two endpoints are copied as
// they are, as one block. The cost is one copy of r plus the merges — never
// a pass over the pairs.
func (r *adjRuns) plus(gain adjRuns) (adjRuns, error) {
	if len(gain.meta) == 0 {
		return *r, nil
	}
	n := max(len(r.first), len(gain.first)) - 1
	runs := len(r.meta) + len(gain.meta)
	out := adjRuns{
		first: make([]int32, n+1),
		meta:  make([]int32, 0, runs),
		off:   make([]int32, 1, runs+1),
		post:  make([]posting, 0, len(r.post)+len(gain.post)),
	}
	// end closes a run of metagraph m at the postings appended since the
	// last one.
	end := func(m int32) {
		out.meta, out.off = append(out.meta, m), append(out.off, int32(len(out.post)))
	}
	next := 0 // the first node not yet laid out
	for v := range graph.NodeID(len(gain.first) - 1) {
		glo, ghi := gain.runs(v)
		if glo == ghi {
			continue
		}
		out.keep(r, next, int(v))
		blo, bhi := r.runs(v)
		for blo < bhi || glo < ghi {
			switch {
			case glo == ghi || (blo < bhi && r.meta[blo] < gain.meta[glo]):
				out.post = append(out.post, r.postings(blo)...)
				end(r.meta[blo])
				blo++
			case blo == bhi || gain.meta[glo] < r.meta[blo]:
				out.post = append(out.post, gain.postings(glo)...)
				end(gain.meta[glo])
				glo++
			default:
				m, was, now := gain.meta[glo], r.postings(blo), gain.postings(glo)
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
		next = int(v) + 1
	}
	out.keep(r, next, n)
	return out, nil
}

// keep appends the runs of the nodes lo to hi-1 in src, as they are.
func (r *adjRuns) keep(src *adjRuns, lo, hi int) {
	a, b := src.below(lo), src.below(hi)
	for v := lo; v < hi; v++ {
		r.first[v+1] = int32(len(r.meta)) + src.below(v+1) - a
	}
	if a == b {
		return
	}
	shift := int32(len(r.post)) - src.off[a]
	r.meta = append(r.meta, src.meta[a:b]...)
	for _, o := range src.off[a+1 : b+1] {
		r.off = append(r.off, o+shift)
	}
	r.post = append(r.post, src.post[src.off[a]:src.off[b]]...)
}

// below returns the number of runs of the nodes below v.
func (r *adjRuns) below(v int) int32 {
	if len(r.first) == 0 {
		return 0
	}
	return r.first[min(v, len(r.first)-1)]
}

// Partners returns the nodes that co-occur symmetrically with x in at least
// one instance, in ascending order: the union of x's runs. The ranked read
// does not call it (see Accumulate); it allocates the union.
func (ix *Index) Partners(x graph.NodeID) []graph.NodeID {
	rs := &ix.flat
	lo, hi := rs.runs(x)
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
	rs := &ix.flat
	lo, hi := rs.runs(q)
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
	return SparseVec{acc.spans[v].of(acc.ix.mx.ent), acc.ix.f}
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
		dots[v] = SparseVec{s.of(ix.mx.ent), ix.f}.Dot(w)
	}
	return dots
}

// Footprint is what an index holds resident, in bytes of slice contents:
// Tables the node table, Adjacency the runs — every m_xy — and the node-row
// positions.
type Footprint struct {
	Tables, Adjacency int64
}

// Footprint sizes the index as it stands.
func (ix *Index) Footprint() Footprint {
	return Footprint{
		Tables:    csrBytes(&ix.mx),
		Adjacency: sliceBytes(ix.spans) + ix.flat.bytes(),
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
