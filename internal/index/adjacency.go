package index

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/graph"
)

// The partner runs: the index's one store of m_xy and m_x. The online phase
// (Fig. 3) scores every node v of Partners(q) by Def. 3, and what it reads
// per candidate is m_qv · w. A learned w is sparse (Fig. 4), so most
// coordinates of m_qv add an exact +0, and a partner reached through
// zero-weight metagraphs alone scores 0 and is dropped. The index therefore
// stores, per node q, one run per metagraph m that q takes part in, in
// ascending metagraph order: a header {m, m_q[m]} and the ascending
// postings {v, raw count m_qv[m]} of every v with m_qv[m] > 0. A ranked
// read walks only the runs whose weight is non-zero and adds count·w[m]
// into an accumulator by node id (Accumulate) — the term-at-a-time
// evaluation an inverted index uses to read only the terms a query weighs,
// the terms being metagraphs. q's headers, in order, are m_q itself, so the
// scans that have no precomputed denominators (NodeDots, NodeDot) read
// them where the scan does.
//
// The sums are bit-identical to SparseVec.Dot of each pair row: a skipped
// term would add +0, which leaves every sum the scan can reach unchanged;
// the others are added in ascending metagraph order, the order Dot uses —
// a two-edge metapath's, read from the graph, at its place in that order
// (Accumulator.addPath); and a partner with no weighted term is exactly
// the one Dot scores 0.
//
// Each m_xy[m] is a posting in a run of x and one in a run of y. Counts
// arrive as the runs above each node (upperRuns), which hold each m_xy
// once — decoded, counted, rooted, selected or gained — with the m_x in
// flight beside them, and upperRuns.layout, the one routine that lays
// counts out as runs, adds the postings below and puts each m_x on its
// run's header. Nothing but the tests walks runs back out into pair rows.

// posting is one partner v of a run (q, m) and the raw count m_qv[m].
type posting struct {
	node  graph.NodeID
	count uint32
}

// adjRuns is a partner CSR dense by node id and grouped by metagraph. The
// runs of node q are those numbered first[q] to first[q+1]-1, ascending by
// metagraph; run r has the header head[r] = {m, m_q[m]} and the postings
// post[off[r]:off[r+1]], ascending by node — never empty but in an index
// Select or a rooted count cut to the rows it names, where a node keeps
// its m_q past the partners cut away. Nodes at or beyond len(first)-1 have
// no runs, and the last node below it has some, so equal runs are laid out
// identically however they were built.
type adjRuns struct {
	first []int32
	head  []Entry
	off   []int32 // len(head)+1 whenever first is non-empty
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
		if m := meta(r.head[i].Meta); m >= 0 {
			refs = append(refs, runRef{Entry{m, r.head[i].Count}, r.postings(i)})
		}
	}
	return refs
}

// upperRuns are the runs above each node: node nodes[i] has the runs
// first[i] to first[i+1]-1 (while a section is decoded, the last node's end
// at len(meta)); run j is metagraph meta[j] with the postings
// post[off[j]:off[j+1]], ascending by node, all above the node. They hold
// every m_xy once, and whatever produces counts hands them over in this
// form: a decoded section (nodes ascending, each node's runs by metagraph),
// the counter, a rooted count, Select and an update's gains (add and
// end). Within each metagraph the runs ascend by node,
// which is all layout needs. The m_x ride beside them, for layout to put on
// the headers: mx lists them, in any order, and a metagraph div names has
// none listed, its counts being its runs' sums over d.
type upperRuns struct {
	nodes []graph.NodeID
	first []int32
	meta  []int32
	off   []int32
	post  []posting
	top   graph.NodeID // the largest partner
	mx    []nodeCount
	div   []divisor // ascending by metagraph
}

// nodeCount is m_x[Meta] = Count of one node x in flight.
type nodeCount struct {
	node graph.NodeID
	Entry
}

// divisor says that every node's count of metagraph meta is the sum of its
// run's postings over d: where each symmetric position of the metagraph
// lies in d symmetric pairs, an instance adds d to that sum for each 1 it
// adds to the node's count (io.go).
type divisor struct {
	meta int32
	d    uint32
}

// reserve sizes the slices for the runs above nodes nodes, of runs runs
// and posts postings in all, so that add and end never grow them.
func (u *upperRuns) reserve(nodes, runs, posts int) {
	u.nodes = make([]graph.NodeID, 0, nodes)
	u.first = append(make([]int32, 0, nodes+1), 0)
	u.meta = make([]int32, 0, runs)
	u.off = append(make([]int32, 0, runs+1), 0)
	u.post = make([]posting, 0, posts)
}

// add appends the posting {y, n} to the run of x being filled, refusing as
// count32 does a count a posting cannot hold; m is the run's metagraph.
func (u *upperRuns) add(x, y graph.NodeID, m int32, n uint64) {
	u.post = append(u.post, posting{y, count32(n, m, MakePairKey(x, y))})
}

// end closes x's run of metagraph m: the postings appended since the last
// run ended. A run of none is not kept, and x joins the last node's runs
// when it is that node.
func (u *upperRuns) end(x graph.NodeID, m int32) {
	if len(u.off) == 0 {
		u.first, u.off = append(u.first, 0), append(u.off, 0)
	}
	at := int32(len(u.post))
	if at == u.off[len(u.off)-1] {
		return
	}
	if n := len(u.nodes); n == 0 || u.nodes[n-1] != x {
		u.nodes, u.first = append(u.nodes, x), append(u.first, 0)
	}
	u.meta, u.off = append(u.meta, m), append(u.off, at)
	u.first[len(u.first)-1] = int32(len(u.meta))
	u.top = max(u.top, u.post[at-1].node)
}

// count hands over m_x[m] = n, refusing as count32 does a count a header
// cannot hold.
func (u *upperRuns) count(x graph.NodeID, m int32, n uint64) {
	u.mx = append(u.mx, nodeCount{x, Entry{m, count32(n, m, x)}})
}

// byMeta returns the positions 0..n-1 grouped by meta(i), ascending, each
// group in position order: counted when there are no more metagraphs than
// positions, sorted otherwise.
func byMeta(n, numMeta int, meta func(i int) int32) []int32 {
	order := make([]int32, n)
	if numMeta <= n {
		at := make([]int32, numMeta+1)
		for i := range n {
			at[meta(i)+1]++
		}
		for i := 1; i <= numMeta; i++ {
			at[i] += at[i-1]
		}
		for i := range n {
			m := meta(i)
			order[at[m]] = int32(i)
			at[m]++
		}
		return order
	}
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(meta(int(a)), meta(int(b))) })
	return order
}

// layout lays out the index's runs, over numMeta metagraphs, from the runs
// above each node: node v's run of m is its partners below it in ascending
// order — every u whose run of m above it holds v — then its own run of m
// above it, under the header {m, m_v[m]}. One pass over the runs,
// metagraph after metagraph and node after node within one, places each
// posting in its node's run and the mirror posting in its partner's, and
// then closes the runs of the metagraph, each with its count: the one mx
// hands over, or its postings' sum over the metagraph's divisor. A count
// whose node has no postings in the metagraph opens a run of none — the
// partners a Select or a rooted count cut away. A run without a count, a
// second count for one run, a count of 0, a count given for a metagraph
// whose counts are derived and a sum its divisor does not divide are
// refused.
func (u *upperRuns) layout(numMeta int) (adjRuns, error) {
	if len(u.meta) == 0 && len(u.mx) == 0 {
		return adjRuns{}, nil
	}
	n := int(u.top) + 1
	for _, c := range u.mx {
		n = max(n, int(c.node)+1)
	}
	node := make([]graph.NodeID, len(u.meta)) // each run's node
	for i, q := range u.nodes {
		for j := u.first[i]; j < u.first[i+1]; j++ {
			node[j] = q
		}
	}
	cur := make([]int32, n+1) // each node's first posting, then its cursor
	for j, q := range node {
		ps := u.post[u.off[j]:u.off[j+1]]
		cur[q+1] += int32(len(ps))
		for _, p := range ps {
			cur[p.node+1]++
		}
	}
	for i := 1; i <= n; i++ {
		cur[i] += cur[i-1]
	}
	order := byMeta(len(u.meta), numMeta, func(j int) int32 { return u.meta[j] })
	counts := byMeta(len(u.mx), numMeta, func(i int) int32 { return u.mx[i].Meta })
	l := &runLayout{cur: cur, end: slices.Clone(cur[:n]), post: make([]posting, 2*len(u.post)), pend: make([]uint32, n)}
	// Every run has its count in mx but those of a metagraph whose counts
	// are derived (div): a run above a node is one more there, and append
	// makes room for a node whose partners in it all sit below it.
	runs := len(u.mx)
	if len(u.div) > 0 {
		runs += len(u.meta)
	}
	l.starts = make([]runStart, 0, runs)
	div := u.div
	for lo, clo := 0, 0; (lo < len(order) || clo < len(counts)) && l.err == nil; {
		m := int32(math.MaxInt32)
		if lo < len(order) {
			m = u.meta[order[lo]]
		}
		if clo < len(counts) {
			m = min(m, u.mx[counts[clo]].Meta)
		}
		hi, placed := lo, 0
		for ; hi < len(order) && u.meta[order[hi]] == m; hi++ {
			j := order[hi]
			q, ps := node[j], u.post[u.off[j]:u.off[j+1]]
			l.cur[q] += int32(copy(l.post[l.cur[q]:], ps))
			for _, p := range ps {
				c := l.cur[p.node]
				l.post[c] = posting{q, p.count}
				l.cur[p.node] = c + 1
			}
			placed += len(ps)
		}
		chi := clo
		for ; chi < len(counts) && u.mx[counts[chi]].Meta == m; chi++ {
			l.give(u.mx[counts[chi]])
		}
		for len(div) > 0 && div[0].meta < m {
			div = div[1:]
		}
		d := uint32(0)
		if len(div) > 0 && div[0].meta == m {
			d = div[0].d
		}
		if 2*placed >= n { // close m for every node
			for q := range graph.NodeID(n) {
				l.close(q, m, d)
			}
		} else {
			for _, j := range order[lo:hi] {
				l.close(node[j], m, d)
				for _, p := range u.post[u.off[j]:u.off[j+1]] {
					l.close(p.node, m, d)
				}
			}
			for _, i := range counts[clo:chi] {
				l.close(u.mx[i].node, m, d)
			}
		}
		lo, clo = hi, chi
	}
	if l.err != nil {
		return adjRuns{}, l.err
	}
	return l.runs(), nil
}

// runLayout places postings node by node, each node's through a cursor
// that runs through its postings one metagraph after the other, and
// records a run, with its count, wherever a node's cursor moved or a count
// was given during a metagraph.
type runLayout struct {
	cur    []int32  // each node's cursor, then the end of its postings
	end    []int32  // where each node's latest run ends
	pend   []uint32 // each node's count in the metagraph being laid out, 0: none given
	starts []runStart
	post   []posting
	err    error // the first count refused
}

// runStart is one run: its node, header and first posting.
type runStart struct {
	node graph.NodeID
	head Entry
	at   int32
}

// give takes the count c hands over for the metagraph being laid out.
func (l *runLayout) give(c nodeCount) {
	switch {
	case c.Count == 0:
		l.fail(fmt.Errorf("index: node %d has a count of 0 in metagraph %d", c.node, c.Meta))
	case l.pend[c.node] != 0:
		l.fail(fmt.Errorf("index: node %d has two counts in metagraph %d", c.node, c.Meta))
	default:
		l.pend[c.node] = c.Count
	}
}

// close records q's run of metagraph m if its cursor moved since its last
// run or a count was given for it, with that count — or, where the
// metagraph's divisor d is not 0, with its postings' sum over d.
func (l *runLayout) close(q graph.NodeID, m int32, d uint32) {
	c, at := l.pend[q], l.end[q]
	if c == 0 && l.cur[q] == at {
		return
	}
	l.pend[q] = 0
	switch {
	case d != 0 && c != 0:
		l.fail(fmt.Errorf("index: node %d is given a count in metagraph %d, whose counts are its runs' sums over %d", q, m, d))
	case d != 0:
		sum := uint64(0)
		for _, p := range l.post[at:l.cur[q]] {
			sum += uint64(p.count)
		}
		if sum%uint64(d) != 0 || sum/uint64(d) > math.MaxUint32 {
			l.fail(fmt.Errorf("index: node %d: the counts of its run of metagraph %d sum to %d, which %d does not divide into a count", q, m, sum, d))
		}
		c = uint32(sum / uint64(d))
	case c == 0:
		l.fail(fmt.Errorf("index: node %d has a run of metagraph %d and no count", q, m))
	}
	l.starts = append(l.starts, runStart{q, Entry{m, c}, at})
	l.end[q] = l.cur[q]
}

// fail records the first count refused.
func (l *runLayout) fail(err error) {
	if l.err == nil {
		l.err = err
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
		head:  make([]Entry, len(l.starts)),
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
		rs.head[at[s.node]], rs.off[at[s.node]] = s.head, s.at
		at[s.node]++
	}
	rs.off[len(l.starts)] = int32(len(l.post))
	return rs
}

// runRef is one run to lay out: its header and its postings.
type runRef struct {
	head Entry
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
		head:  make([]Entry, 0, runs),
		off:   make([]int32, 1, runs+1),
		post:  make([]posting, 0, posts),
	}
	for q := range graph.NodeID(top + 1) {
		refs = of(q, refs[:0])
		if !slices.IsSortedFunc(refs, compareRunMeta) {
			slices.SortFunc(refs, compareRunMeta)
		}
		for _, r := range refs {
			out.head = append(out.head, r.head)
			out.post = append(out.post, r.post...)
			out.off = append(out.off, int32(len(out.post)))
		}
		out.first[q+1] = int32(len(out.head))
	}
	return out
}

// compareRunMeta orders runs by metagraph.
func compareRunMeta(a, b runRef) int { return cmp.Compare(a.head.Meta, b.head.Meta) }

// relaid lays out the runs of ix with every metagraph m renumbered meta(m)
// or dropped where that is negative.
func (ix *Index) relaid(meta func(int32) int32) adjRuns {
	return layRuns(ix.NodeSpan(), func(q graph.NodeID, refs []runRef) []runRef {
		return ix.flat.appendRuns(refs, q, meta)
	})
}

// plus returns r with the runs of gain added: each endpoint v of gain gets
// its runs in r merged with its gain runs, metagraph by metagraph and
// partner by partner, the counts of a header or a partner both hold summed
// (see addCount), and the runs of the nodes between two endpoints are
// copied as they are, as one block. The cost is one copy of r plus the
// merges — never a pass over the pairs.
func (r *adjRuns) plus(gain adjRuns) (adjRuns, error) {
	if len(gain.head) == 0 {
		return *r, nil
	}
	n := max(len(r.first), len(gain.first)) - 1
	runs := len(r.head) + len(gain.head)
	out := adjRuns{
		first: make([]int32, n+1),
		head:  make([]Entry, 0, runs),
		off:   make([]int32, 1, runs+1),
		post:  make([]posting, 0, len(r.post)+len(gain.post)),
	}
	// end closes a run under the header h at the postings appended since
	// the last one.
	end := func(h Entry) {
		out.head, out.off = append(out.head, h), append(out.off, int32(len(out.post)))
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
			case glo == ghi || (blo < bhi && r.head[blo].Meta < gain.head[glo].Meta):
				out.post = append(out.post, r.postings(blo)...)
				end(r.head[blo])
				blo++
			case blo == bhi || gain.head[glo].Meta < r.head[blo].Meta:
				out.post = append(out.post, gain.postings(glo)...)
				end(gain.head[glo])
				glo++
			default:
				m, was, now := gain.head[glo].Meta, r.postings(blo), gain.postings(glo)
				h, err := addCount(r.head[blo].Count, gain.head[glo].Count, m, v)
				if err != nil {
					return adjRuns{}, err
				}
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
				end(Entry{m, h})
				blo, glo = blo+1, glo+1
			}
		}
		out.first[v+1] = int32(len(out.head))
		next = int(v) + 1
	}
	out.keep(r, next, n)
	return out, nil
}

// keep appends the runs of the nodes lo to hi-1 in src, as they are.
func (r *adjRuns) keep(src *adjRuns, lo, hi int) {
	a, b := src.below(lo), src.below(hi)
	for v := lo; v < hi; v++ {
		r.first[v+1] = int32(len(r.head)) + src.below(v+1) - a
	}
	if a == b {
		return
	}
	shift := int32(len(r.post)) - src.off[a]
	r.head = append(r.head, src.head[a:b]...)
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
// one instance, in ascending order: the union of x's runs and of its
// two-edge metapaths' partners. The ranked read does not call it (see
// Accumulate); it allocates the union.
func (ix *Index) Partners(x graph.NodeID) []graph.NodeID {
	rs := &ix.flat
	lo, hi := rs.runs(x)
	var out []graph.NodeID
	if lo < hi && rs.off[hi] > rs.off[lo] {
		out = make([]graph.NodeID, 0, rs.off[hi]-rs.off[lo])
		for _, p := range rs.post[rs.off[lo]:rs.off[hi]] {
			out = append(out, p.node)
		}
	}
	for _, p := range ix.paths {
		out = ix.pathPartners(out, x, p)
	}
	if hi-lo > 1 || len(ix.paths) > 0 {
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
	// sum that comes to 0 (weights of both signs cancelling) still marks its
	// partner reached.
	slot []accSlot
	gen  uint32
	path uint32 // the stamp of the two-edge metapath addPath scans last
	ix   *Index // the index scanned, whose node rows NodeVec reads
}

// accSlot is one node's partial sum and the scan it belongs to; and, for
// the two-edge metapath whose stamp path is, the middle nodes the node
// shares with the query in it and its sum before it (see addPath).
type accSlot struct {
	sum, before  float64
	gen          uint32
	path, shared uint32
}

var accumulators = sync.Pool{New: func() any { return new(Accumulator) }}

// Accumulate scans the runs of q whose metagraph w weighs (w[m] != 0),
// adding count·w[m] into the partial sum of each posting's partner, and
// q's two-edge metapaths w weighs alike, in one ascending metagraph order.
// Each sum then equals the pair row's SparseVec.Dot(w) bit for bit (see
// the note at the top of this file). The result comes from a pool and is
// valid until Release; once the pooled accumulator has grown to the
// index's node span, a scan allocates nothing.
func (ix *Index) Accumulate(q graph.NodeID, w []float64) *Accumulator {
	acc := accumulators.Get().(*Accumulator)
	if span := ix.NodeSpan(); len(acc.slot) < span {
		acc.slot = make([]accSlot, span)
	}
	if acc.gen++; acc.gen == 0 { // the stamps wrapped: no slot may look current
		clear(acc.slot)
		acc.gen = 1
	}
	rs := &ix.flat
	acc.Query, acc.ix = q, ix
	slot, touched, gen := acc.slot, acc.Touched[:0], acc.gen
	lo, hi := rs.runs(q)
	ps := ix.paths
	for r := lo; r < hi || len(ps) > 0; {
		if len(ps) > 0 && (r == hi || ps[0].meta < rs.head[r].Meta) {
			if wm := w[ps[0].meta]; wm != 0 && ix.onEnd(q, ps[0]) {
				touched = acc.addPath(q, ps[0], wm, touched)
			}
			ps = ps[1:]
			continue
		}
		if wm := w[rs.head[r].Meta]; wm != 0 {
			for _, p := range rs.postings(r) {
				s := &slot[p.node]
				if s.gen != gen {
					*s = accSlot{gen: gen}
					touched = append(touched, p.node)
				}
				s.sum += float64(p.count) * wm
			}
		}
		r++
	}
	acc.Touched = touched
	return acc
}

// addPath adds m_qy·wm of the two-edge metapath p to the sum of every
// partner y of q, an end-typed node, and returns touched with the partners
// it reached first appended. It walks the partners of q's middle nodes
// once, counting per partner the middle nodes it shares with q, an integer
// k, and keeping its sum at what it was before p plus k·wm: the sum a run's
// posting of count k adds, bit for bit, whichever middle node comes last.
// q's own slot is stamped as reached, so q, which every list of its middle
// nodes holds, is never listed; no scan reads its sum.
func (acc *Accumulator) addPath(q graph.NodeID, p path, wm float64, touched []graph.NodeID) []graph.NodeID {
	g, slot, gen := acc.ix.g, acc.slot, acc.gen
	slot[q].gen = gen
	if acc.path++; acc.path == 0 { // the path stamps wrapped
		for i := range acc.slot {
			acc.slot[i].path = 0
		}
		acc.path = 1
	}
	at := acc.path
	for _, b := range g.NeighborsOfType(q, p.mid) {
		for _, y := range g.NeighborsOfType(b, p.end) {
			switch s := &slot[y]; {
			case s.gen != gen:
				*s = accSlot{sum: wm, gen: gen, path: at, shared: 1}
				touched = append(touched, y)
			case s.path != at:
				s.before, s.path, s.shared = s.sum, at, 1
				s.sum += wm
			default:
				s.shared++
				s.sum = s.before + float64(s.shared)*wm
			}
		}
	}
	return touched
}

// PairDot returns m_qv · w of a touched partner v.
func (acc *Accumulator) PairDot(v graph.NodeID) float64 { return acc.slot[v].sum }

// Release returns the accumulator to the pool. It must not be used
// afterwards.
func (acc *Accumulator) Release() {
	acc.ix = nil
	accumulators.Put(acc)
}

// NodeSpan returns the length of the node id range the index names: one
// past the largest node with a run, or the graph's node count when the
// index serves a two-edge metapath from it — past every partner either way.
func (ix *Index) NodeSpan() int {
	n := max(len(ix.flat.first)-1, 0)
	if len(ix.paths) > 0 {
		n = max(n, ix.g.NumNodes())
	}
	return n
}

// NodeDots returns m_v · w for every node id below NodeSpan, dense by id
// (0 for a node without a row): the half of every candidate's denominator
// that does not depend on the query. Every partner and every query node
// with partners indexes it in range.
func (ix *Index) NodeDots(w []float64) []float64 {
	dots := make([]float64, ix.NodeSpan())
	for v := range dots {
		dots[v] = ix.NodeDot(graph.NodeID(v), w)
	}
	return dots
}

// Footprint is what an index holds resident, in bytes of slice contents:
// its runs, which hold every m_xy in their postings and every m_x in their
// headers, and its two-edge metapaths, whose counts the graph holds.
func (ix *Index) Footprint() int64 {
	rs := &ix.flat
	return sliceBytes(rs.first) + sliceBytes(rs.head) + sliceBytes(rs.off) + sliceBytes(rs.post) + sliceBytes(ix.paths)
}

func sliceBytes[T any](s []T) int64 {
	var z T
	return int64(len(s)) * int64(unsafe.Sizeof(z))
}
