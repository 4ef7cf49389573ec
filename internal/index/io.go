package index

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/flat"
	"repro/internal/graph"
	"repro/internal/metagraph"
)

// Serialization of the metagraph-vector index. Matching dominates the
// offline phase (Table III), so persisting its output lets deployments
// mine+match once and train/query many times.
//
// An index travels as one section of a flat stream (internal/flat): node
// after node the runs above it — the postings of each run (q, m) whose
// partner is above q, which hold every m_xy once — then what the run
// headers' counts need. The reader lays out the rest: a node's partners
// below it in a run are the nodes whose runs above them hold it, and a
// header's count m_q[m] is, for nearly every metagraph, its run's sum over
// a divisor d the section states. An instance that puts q on a symmetric
// position adds 1 to m_q[m] and 1 to m_qy[m] for each partner y on a
// position symmetric to q's; when every symmetric position of M_m lies in
// the same number d of symmetric pairs, Σ_y m_qy[m] = d·m_q[m] for every
// q. The writer finds d in the counts themselves, so the section needs no
// metagraph; where no one d divides every run, it writes the counts.
//
//	                       order
//	numMeta                  0
//	runs above each node:
//	  nRuns nPostings        0   what follows, in all
//	  per node q with a partner above it, ascending:
//	    q-prev               1   prev the node before it (-1 for the
//	                             first): at least 1
//	    runs<<b | first      3   how many of q's runs hold a partner above
//	                             q, and the first one's metagraph, b =
//	                             bits.Len(numMeta)
//	    runs-1 × Meta gap    1   each next metagraph minus the one before,
//	                             at least 1
//	    per such run (q, m), its postings above q:
//	      d                  4   0: no reference; else the run copies from
//	                             p = q-d's run of m above p, decoded before
//	      k, k × block     0, 1  only when d > 0: copy blocks over p's
//	                             postings above q, take, skip, take, …, the
//	                             first at least 0 and the others at least
//	                             1; what they leave is taken when k is
//	                             even, skipped when it is odd. A taken
//	                             posting is copied with its count.
//	      res<<1 | ones      2   the residuals: the postings not copied
//	      res × gap          4   each partner minus the one before (q for
//	                             the first): at least 1
//	      res × Count        1   only when ones is clear
//	per metagraph the runs hold, ascending:
//	  divisor                1   each node's count is its run's postings'
//	                             sum over it; 0: the counts are written
//	per metagraph of divisor 0, ascending, its written counts:
//	  n                      0   one per node with a run of it
//	  n × (v-prev, Count)  1, 2  the nodes ascending from prev = -1, each
//	                             gap at least 1; the count at least 1
//	zero bits to the next byte boundary
//
// Every field is an exp-Golomb code of the order beside it (flat.Writer.
// ExpGolomb): a fixed constant of the format per field, chosen by a tally
// of the field's bits in the LinkedIn read_direct, lifecycle and
// paper-shape sections, so small gaps cost a few bits and no field pays a
// whole byte. A Count is the raw instance count, and most are 1, so a run
// of ones costs no counts. A held metagraph such as user–college–user pairs
// everyone who shares a hub, so a node's partners above it are mostly
// those of a partner just below it: Encode tries the refCandidates nearest
// partners below q in the run as references, the way WebGraph codes an
// adjacency list against an earlier one, and keeps the cheapest in bits.
// Index internals are deterministic and so are the choices, so the bytes
// are stable without any extra sorting. An engine snapshot embeds the
// section of its one index; no index travels on its own.

// The exp-Golomb order of each field of the section (see above).
const (
	ordSize    = 0 // numMeta, nRuns, nPostings, a metagraph's written counts
	ordMetaGap = 1 // a Meta gap in a node's run heads
	ordNode    = 1 // a node's gap from the node before it
	ordRunHead = 3 // a node's runs<<b | first
	ordRef     = 4 // a run's reference distance
	ordBlocks  = 0 // a run's number of copy blocks
	ordBlock   = 1 // a copy block
	ordResHead = 2 // a run's res<<1 | ones
	ordResGap  = 4 // a residual's gap
	ordResCnt  = 1 // a residual's Count
	ordDiv     = 1 // a metagraph's divisor
	ordCntGap  = 1 // a written count's node gap
	ordCnt     = 2 // a written Count
)

const (
	// refCandidates is how many of q's nearest partners below it in a run
	// Encode prices as the run's reference. The decoder takes any.
	refCandidates = 4
	// maxPostingsPerByte caps the postings a section may decode per byte
	// of it received — one per bit: a copy is the one way a few bits make
	// many postings (a chain of n runs each copying the one before and
	// adding one would make n²/2 of them out of a few bytes a run). The decoder
	// refuses a copy that would take the section's postings past the bits
	// received so far, and Encode writes residuals wherever a copy would,
	// so whatever Encode writes, the decoder reads. A residual needs no
	// check: its gap alone costs ordResGap+1 = 5 bits or more, so residuals
	// come at most 1.6 to the byte. A decoded posting costs at most
	// postingAlloc bytes, so a section costs at most
	// maxPostingsPerByte·postingAlloc bytes of allocation per byte received.
	maxPostingsPerByte = 8
	// postingAlloc bounds what one posting above its node costs the
	// decoder, with its share of the runs it makes: its 8 bytes in an
	// arena grown through flat.Grow, which can run 8× ahead of what was
	// decoded (a lying claim), plus its two 8-byte places in the laid-out
	// runs — 80 — plus the runs' share. A laid-out run costs 44 bytes: its
	// 8-byte header, its 4-byte offset, and the layout's 16-byte record of
	// it, twice over while that grows. A run above its node costs 10 bits or more (a reference
	// distance, a residuals' head and a metagraph gap), and every other run
	// is a partner's, opened by a residual, 5 bits or more: at most 0.3 runs
	// a bit, 13 bytes of runs per bit against the 8 of postings it could
	// have copied instead — 93 bytes a bit at worst, rounded up. A written
	// count costs 5 bits or more and takes 12 bytes, 96 while its arena
	// grows, so less per bit.
	postingAlloc = 96
	// countedAlloc is what one posting counted from the graph costs a load
	// (DecodeCounting) where the budget binds: its 8 bytes in an arena
	// sized once, from twoEdgeBound, plus its two 8-byte places in the
	// laid-out runs — 24 — plus its share of the runs, 28 bytes a run (its
	// 8-byte header, its 4-byte offset and the layout's 16-byte record; no
	// count rides in flight, the header's being the run's sum). The budget
	// binds where hubs pair their members, and a hub of d members makes
	// d(d−1)/2 postings for at most d runs: two postings a run from d = 5,
	// 14 bytes a posting, 38 in all, rounded up.
	countedAlloc = 48
	// maxCountedPerByte caps the postings a load may count from the graph
	// per byte received ahead of the section: as many as cost what
	// maxPostingsPerByte decoded ones do, two per bit. A load costs at most
	// maxPostingsPerByte·postingAlloc bytes of allocation per byte received,
	// counted or decoded.
	maxCountedPerByte = maxPostingsPerByte * postingAlloc / countedAlloc
)

// Encode appends ix to w as one section: each node's runs above it,
// walked straight out of the runs, then the counts' divisors and the counts
// no divisor gives.
func Encode(w *flat.Writer, ix *Index) { encode(w, ix, nil) }

// EncodeCounting is Encode of an index over the metagraphs ms, those
// matched set, on g, without the rows DecodeCounting counts again from g
// (countedSlots): the runs of those metagraphs are skipped as the section
// is written. ms spans ix's metagraphs.
func EncodeCounting(w *flat.Writer, ix *Index, g *graph.Graph, ms []*metagraph.Metagraph, matched []bool) {
	counted, _ := countedSlots(g, ms, matched, w.BitOffset())
	encode(w, ix, counted)
}

// encode writes ix as one section without the rows of the metagraphs skip
// holds (nil: none).
func encode(w *flat.Writer, ix *Index, skip []bool) {
	e := runEncoder{w: w, start: w.BitOffset(), rs: &ix.flat, skip: skip}
	w.ExpGolomb(uint64(ix.numMeta), ordSize)
	e.encode(ix.numMeta)
	e.counts(ix.numMeta)
	w.Align()
}

// divisors returns, per metagraph of rs, what counts writes for it: -1
// where it has no run outside skip, else the one ratio of a run's sum to
// its header's count that every run of it has, or 0 where they do not
// share one.
func divisors(rs *adjRuns, numMeta int, skip []bool) []int64 {
	div := make([]int64, numMeta)
	for m := range div {
		div[m] = -1
	}
	for r, h := range rs.head {
		if skip != nil && skip[h.Meta] {
			continue
		}
		sum := uint64(0)
		for _, p := range rs.postings(int32(r)) {
			sum += uint64(p.count)
		}
		d := int64(0)
		if q := sum / uint64(h.Count); q*uint64(h.Count) == sum && q <= math.MaxUint32 {
			d = int64(q)
		}
		if div[h.Meta] < 0 {
			div[h.Meta] = d
		} else if div[h.Meta] != d {
			div[h.Meta] = 0
		}
	}
	return div
}

// counts writes, for each metagraph the runs written hold, the divisor
// that turns each of its runs' sums into the count on the run's header,
// and then the counts of each metagraph of divisor 0, node by node.
func (e *runEncoder) counts(numMeta int) {
	rs, w := e.rs, e.w
	div := divisors(rs, numMeta, e.skip)
	for _, d := range div {
		if d >= 0 {
			w.ExpGolomb(uint64(d), ordDiv)
		}
	}
	var written []nodeCount
	for m, d := range div {
		if d != 0 {
			continue
		}
		written = written[:0]
		for q := range graph.NodeID(len(rs.first) - 1) {
			lo, hi := rs.runs(q)
			if i, ok := slices.BinarySearchFunc(rs.head[lo:hi], Entry{Meta: int32(m)}, compareEntryMeta); ok {
				written = append(written, nodeCount{q, rs.head[lo+int32(i)]})
			}
		}
		w.ExpGolomb(uint64(len(written)), ordSize)
		prev := graph.NodeID(-1)
		for _, c := range written {
			w.ExpGolomb(uint64(c.node-prev), ordCntGap)
			w.ExpGolomb(uint64(c.Count), ordCnt)
			prev = c.node
		}
	}
}

// runEncoder writes the runs above each node of rs, each against the
// cheapest reference it is allowed.
type runEncoder struct {
	w     *flat.Writer
	start int64 // the section's first bit
	rs    *adjRuns
	skip  []bool  // per metagraph, whether its runs are left out (nil: none)
	above []int32 // per run, its first posting above its node
	// next[r] is run r's first posting above the node last written with
	// it as a candidate: the nodes are written ascending, so it only moves
	// on.
	next  []int32
	posts int // postings written so far
	// marks[v] is partner v of the run being written above its node, if
	// its key is current (see upMark).
	marks  []upMark
	at     []int32 // each partner's place among the run's postings
	serial uint32
	all    resCost
	cands  [refCandidates + 1]runPlan // [0] has no reference
}

// upMark is a partner v of the run being written above its node: key is
// the run's serial<<32 and v's count, and res what v takes as a residual
// after the posting before it (after the node for the first), packed in
// fields of 24, 24 and 16 bits: its gap's bits, its count's bits<<24, and
// 1<<48 if its count is not 1. A code of a gap below 2^31 or a count below
// 2^32 is at most 65 bits long, so the fields of a run of fewer than 2^16
// postings sum without carrying into the next.
type upMark struct {
	key, res uint64
}

// packLimit is the number of postings a run must stay below for upMark.res
// sums to hold; longer runs are priced without the bound.
const packLimit = 1 << 16

// resCost is what residuals take: their gaps, and their counts if
// notOne, the number of counts not 1, is above 0.
type resCost struct{ gaps, cnts, notOne int }

// minus is c without what the postings whose upMark.res values sum to sum
// take.
func (c resCost) minus(sum uint64) resCost {
	const field = 1<<24 - 1
	return resCost{c.gaps - int(sum&field), c.cnts - int(sum>>24&field), c.notOne - int(sum>>48)}
}

// size is the bits n such residuals take with their head.
func (c resCost) size(n int) int {
	b := egLen(uint64(n)<<1, ordResHead) + c.gaps
	if c.notOne > 0 {
		b += c.cnts
	}
	return b
}

// runPlan is one way to write the postings above q of a run: against the
// reference ref at distance d (0: none), copying the taken postings of the
// run, those i with took[i] the run's serial, and writing the others as
// residuals. The reference's take/skip sequence switches at the positions
// switches lists, so the copy blocks but the last are their differences.
// low bounds its bits from below, and cost and size are its bits through
// the blocks and in all.
type runPlan struct {
	d        uint64
	ref      []posting
	took     []uint32 // one slot past the run's postings, for what is skipped
	switches []int32
	res      []posting
	ones     bool // every residual's count is 1
	taken    int
	low      int
	cost     int
	size     int
}

// egLen is the length in bits of x's exp-Golomb code of order k. For k ≥ 1
// it is the same for 2x and 2x+1, so a head's flag bit never changes its
// price.
func egLen(x uint64, k uint) int { return 2*bits.Len64(x+1<<k) - int(k) - 1 }

// gap is v's gap from u as a residual codes it: node ids are below 2^31,
// so it fits 32 bits, and in a run that does not ascend (an index built of
// rows no matcher reports) it wraps there, so Encode still writes it.
func gap(u, v graph.NodeID) uint64 { return uint64(uint32(v - u)) }

// minResidual is the fewest bits a residual takes: a gap of at least 1.
const minResidual = ordResGap + 1

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (e *runEncoder) encode(numMeta int) {
	rs := e.rs
	n := max(len(rs.first)-1, 0)
	e.above = make([]int32, len(rs.head))
	nRuns, nPost := 0, 0
	for q := range graph.NodeID(n) {
		lo, hi := rs.runs(q)
		for r := lo; r < hi; r++ {
			if e.skip != nil && e.skip[rs.head[r].Meta] {
				e.above[r] = rs.off[r+1] // nothing above q to write
				continue
			}
			ps := rs.postings(r)
			i, _ := slices.BinarySearchFunc(ps, q, comparePosting) // q is not its own partner
			e.above[r] = rs.off[r] + int32(i)
			if len(ps) > i {
				nRuns, nPost = nRuns+1, nPost+len(ps)-i
			}
		}
	}
	w := e.w
	w.ExpGolomb(uint64(nRuns), ordSize)
	w.ExpGolomb(uint64(nPost), ordSize)
	if nRuns == 0 {
		return
	}
	e.next = slices.Clone(e.above)
	e.marks, e.at = make([]upMark, n), make([]int32, n)
	b := uint(bits.Len(uint(numMeta)))
	prev := graph.NodeID(-1)
	for q := range graph.NodeID(n) {
		lo, hi := rs.runs(q)
		runs, first := uint64(0), int32(-1)
		for r := lo; r < hi; r++ {
			if e.above[r] < rs.off[r+1] {
				if runs++; first < 0 {
					first = rs.head[r].Meta
				}
			}
		}
		if runs == 0 {
			continue
		}
		w.ExpGolomb(uint64(q-prev), ordNode)
		w.ExpGolomb(runs<<b|uint64(first), ordRunHead)
		prev = q
		last := first
		for r := lo; r < hi; r++ {
			if m := rs.head[r].Meta; e.above[r] < rs.off[r+1] && m != first {
				w.ExpGolomb(uint64(m-last), ordMetaGap)
				last = m
			}
		}
		for r := lo; r < hi; r++ {
			if e.above[r] < rs.off[r+1] {
				e.run(q, r)
			}
		}
	}
}

// run writes the postings above q of q's run r: with no reference, or
// copying from one of the refCandidates partners nearest below q —
// whichever takes the fewest bits, the nearest (no reference before any)
// on a tie — among those that keep the section within maxPostingsPerByte.
// The candidates come nearest first, each bounded from below before it is
// priced: by its list's length, then by a walk of its list against the
// run's postings keyed by node that stores nothing and branches on nothing
// it finds — its bits but for what a residual's gap from the residual
// before it adds over its gap from the posting before it. Only a
// candidate whose bound beats the best so far is planned and priced to the
// bit.
func (e *runEncoder) run(q graph.NodeID, r int32) {
	rs := e.rs
	m, up, below := rs.head[r].Meta, rs.post[e.above[r]:rs.off[r+1]], rs.post[rs.off[r]:e.above[r]]
	e.serial++ // one per run: fewer than 2^31, so it never wraps
	e.all = resCost{}
	last := q
	for i, u := range up {
		g, c, one := egLen(gap(last, u.node), ordResGap), egLen(uint64(u.count), ordResCnt), b2i(u.count != 1)
		e.marks[u.node], e.at[u.node] = upMark{uint64(e.serial)<<32 | uint64(u.count), uint64(g | c<<24 | one<<48)}, int32(i)
		e.all.gaps, e.all.cnts, e.all.notOne = e.all.gaps+g, e.all.cnts+c, e.all.notOne+one
		last = u.node
	}
	// No reference: d = 0, then every posting a residual.
	best := &e.cands[0]
	best.taken, best.cost, best.res, best.ones = 0, egLen(0, ordRef), up, e.all.notOne == 0
	best.size = best.cost + e.all.size(len(up))
	at := e.w.BitOffset() - e.start
	for c := 1; c <= min(refCandidates, len(below)); c++ {
		// p's run of m holds q, its partner; what follows q in it is the
		// list a copy reads, just past p's postings below q.
		p := below[len(below)-c].node
		plo, phi := rs.runs(p)
		i, _ := slices.BinarySearchFunc(rs.head[plo:phi], Entry{Meta: m}, compareEntryMeta)
		pr := plo + int32(i)
		pl := &e.cands[c]
		end := rs.off[pr+1]
		k := e.next[pr]
		for k < end && rs.post[k].node <= q {
			k++
		}
		e.next[pr] = k
		pl.d, pl.ref = uint64(q-p), rs.post[k:end]
		// d, the shortest k and residuals' head, and a residual for each
		// posting of up beyond the reference's. The candidates come
		// nearest first, so a tie goes to the best so far.
		if egLen(pl.d, ordRef)+ordBlocks+1+ordResHead+1+minResidual*max(len(up)-len(pl.ref), 0) >= best.size {
			continue
		}
		// The nearest is walked once: it is the likeliest to win.
		if c > 1 {
			if e.walk(pl, len(up), false); pl.low >= best.size {
				continue
			}
		}
		// The cap as the decoder checks it, after the blocks: postings
		// per byte, so eight times the postings against the bits.
		if e.walk(pl, len(up), true); pl.low >= best.size || 8*int64(e.posts+pl.taken) > maxPostingsPerByte*(at+int64(pl.cost)) {
			continue
		}
		if pl.size = pl.cost + e.residuals(pl, q, up); pl.size < best.size {
			best = pl
		}
	}
	best.write(e.w, q)
	e.posts += len(up)
}

// walk bounds the bits of the run's nUp postings written against pl's
// reference from below, setting taken and low: a posting of the reference
// is taken when the run holds its partner with the same count, a block
// ends where taking switches to skipping or back, and a residual's gap is
// at least the one from the posting before it. With plan set it also marks
// in took what it takes, lists where the blocks switch and sets cost, the
// exact bits through the blocks; the bound is then the exact size unless
// a residual's gap from the residual before it needs more bits than the gap
// from the posting before it. Without, it stores nothing else, and bounds
// each block by the shortest code.
func (e *runEncoder) walk(pl *runPlan, nUp int, plan bool) {
	marks, serial := e.marks, uint64(e.serial)<<32
	n, taken, prev, sum := 0, 0, 1, uint64(0)
	blocks := 0 // the blocks' bits, or a bound on them
	if !plan {
		for _, v := range pl.ref {
			mk := &marks[v.node]
			take := b2i(mk.key == serial|uint64(v.count))
			sum += uint64(take) * mk.res
			n += take ^ prev
			taken, prev = taken+take, take
		}
		blocks = n * (ordBlock + 1)
	} else {
		if len(pl.took) <= nUp {
			pl.took = make([]uint32, 2*nUp+1)
		}
		if cap(pl.switches) < len(pl.ref) {
			pl.switches = make([]int32, len(pl.ref))
		}
		sw, took := pl.switches[:len(pl.ref)], pl.took
		for i, v := range pl.ref {
			mk := &marks[v.node]
			take := b2i(mk.key == serial|uint64(v.count))
			sum += uint64(take) * mk.res
			// What is skipped lands in the slot past the run.
			took[take*int(e.at[v.node])+(1-take)*nUp] = e.serial
			sw[n] = int32(i)
			n += take ^ prev
			taken, prev = taken+take, take
		}
		pl.switches = sw[:n]
		last := int32(0)
		for _, s := range pl.switches {
			blocks += egLen(uint64(s-last), ordBlock)
			last = s
		}
	}
	pl.taken = taken
	low := egLen(pl.d, ordRef) + egLen(uint64(n), ordBlocks) + blocks
	if plan {
		pl.cost = low
	}
	if nUp < packLimit {
		pl.low = low + e.all.minus(sum).size(nUp-taken)
	} else {
		pl.low = low + egLen(uint64(nUp-taken)<<1, ordResHead) + minResidual*(nUp-taken)
	}
}

// residuals lists in pl the postings of up that it does not copy, and
// returns what they take as residuals: their head, gaps, and counts unless
// every one is 1.
func (e *runEncoder) residuals(pl *runPlan, q graph.NodeID, up []posting) int {
	if cap(pl.res) < len(up) {
		pl.res = make([]posting, 2*len(up))
	}
	res, serial, took := pl.res[:len(up)], e.serial, pl.took
	n, last, gaps, cnts, notOne := 0, q, 0, 0, 0
	for i, u := range up {
		r := 1
		if pl.d != 0 {
			r = b2i(took[i] != serial)
		}
		res[n] = u
		n += r
		gaps += r * egLen(gap(last, u.node), ordResGap)
		cnts += r * egLen(uint64(u.count), ordResCnt)
		notOne |= r & b2i(u.count != 1)
		last += graph.NodeID(r) * (u.node - last)
	}
	pl.res, pl.ones = res[:n], notOne == 0
	return egLen(uint64(n)<<1, ordResHead) + gaps + notOne*cnts
}

// write writes the run of node q as pl plans it.
func (pl *runPlan) write(w *flat.Writer, q graph.NodeID) {
	w.ExpGolomb(pl.d, ordRef)
	if pl.d != 0 {
		w.ExpGolomb(uint64(len(pl.switches)), ordBlocks)
		last := int32(0)
		for _, s := range pl.switches {
			w.ExpGolomb(uint64(s-last), ordBlock)
			last = s
		}
	}
	w.ExpGolomb(uint64(len(pl.res))<<1|uint64(b2i(pl.ones)), ordResHead)
	last := q
	for _, u := range pl.res {
		w.ExpGolomb(gap(last, u.node), ordResGap)
		last = u.node
	}
	if !pl.ones {
		for _, u := range pl.res {
			w.ExpGolomb(uint64(u.count), ordResCnt)
		}
	}
}

// DecodeCounting reads a section EncodeCounting wrote for the metagraphs
// ms, those matched set, beside g, the graph decoded ahead of it. The bytes
// are untrusted: everything reads rely on (strictly ascending nodes,
// partners and Metas, Metas within numMeta, counts in [1, 2^32-1], runs
// never empty, one count on every run's header and none anywhere else) and
// everything the runs index by node id or by posting position (nodes and
// partners within the graph, references to runs decoded before) is checked
// as it is decoded or laid out, so a corrupt stream is refused with an
// error and can neither panic a reader nor size an allocation by a number
// it made up (see flat.Grow; maxPostingsPerByte). The rows the section left
// out are counted from g, and their runs are laid out with the section's
// own in one pass: the runs above each node with the partners below it,
// each header with its count. What the count may allocate is priced from
// g's degrees before the section is read, at most maxCountedPerByte
// postings per byte of the stream before it (countedSlots). A section that
// spans other than len(ms) metagraphs, holds a run or a count of a
// metagraph matched does not hold or of one it should have left out, or
// whose runs with the counted ones would pass the runs' int32 positions is
// refused. The count runs before the caller checks the stream's trailer,
// as the layout of the section's own runs does.
func DecodeCounting(r *flat.Reader, g *graph.Graph, ms []*metagraph.Metagraph, matched []bool) (*Index, error) {
	counted, bound := countedSlots(g, ms, matched, r.BitOffset())
	sec, err := decodeSection(r, g.NumNodes())
	if err != nil {
		return nil, err
	}
	if sec.numMeta != len(ms) {
		return nil, fmt.Errorf("index: the section spans %d metagraphs, want %d", sec.numMeta, len(ms))
	}
	if slices.ContainsFunc(sec.up.meta, func(m int32) bool { return counted[m] }) ||
		slices.ContainsFunc(sec.up.mx, func(c nodeCount) bool { return counted[c.Meta] }) {
		return nil, errors.New("index: the section holds rows of a two-edge metapath it leaves to the graph's common neighbours")
	}
	// A count of a metagraph needs a run of it, which decoded checks.
	if i := slices.IndexFunc(sec.up.meta, func(m int32) bool { return !matched[m] }); i >= 0 {
		return nil, fmt.Errorf("index: the section has rows of metagraph %d, which is not matched", sec.up.meta[i])
	}
	sec.up.post = slices.Grow(sec.up.post, int(bound))
	for slot, ok := range counted {
		if ok {
			sec.up.addTwoEdge(g, ms[slot], int32(slot))
		}
	}
	if len(sec.up.post) > math.MaxInt32/2 {
		return nil, errors.New("index: the section's runs and the counted ones overflow the runs' posting positions")
	}
	slices.SortFunc(sec.up.div, func(a, b divisor) int { return cmp.Compare(a.meta, b.meta) })
	return sec.decoded()
}

// decoded lays a decoded section out, refusing what layout refuses and a
// count written for a node that has no run of its metagraph, which layout
// gives a run of none.
func (s *section) decoded() (*Index, error) {
	ix, err := s.build()
	if err != nil {
		return nil, err
	}
	rs := &ix.flat
	for q := range graph.NodeID(ix.NodeSpan()) {
		lo, hi := rs.runs(q)
		for r := lo; r < hi; r++ {
			if rs.off[r] == rs.off[r+1] {
				return nil, fmt.Errorf("index: a count is written for node %d, which has no run of metagraph %d", q, rs.head[r].Meta)
			}
		}
	}
	return ix, nil
}

// decodeSection reads one section for a graph of numNodes nodes with the
// checks DecodeCounting lists, leaving its runs to be laid out.
func decodeSection(r *flat.Reader, numNodes int) (*section, error) {
	start := r.BitOffset()
	numMeta := r.ExpGolomb(ordSize)
	if numMeta > math.MaxInt32 {
		return nil, fmt.Errorf("index: %w", corrupt(r, "metagraph count", "overflows int32"))
	}
	d := runDecoder{r: r, start: start, numMeta: numMeta, numNodes: uint64(max(numNodes, 0))}
	if err := d.decode(); err != nil {
		return nil, fmt.Errorf("index: runs: %w", err)
	}
	if err := d.counts(); err != nil {
		return nil, fmt.Errorf("index: counts: %w", err)
	}
	if r.Align(); r.Err() != nil {
		return nil, fmt.Errorf("index: %w", r.Err())
	}
	return &section{numMeta: int(numMeta), up: d.up}, nil
}

// corrupt names an invariant the stream broke — unless the stream itself
// already failed, in which case the zero it returned is not the cause.
func corrupt(r *flat.Reader, what, how string) error {
	if err := r.Err(); err != nil {
		return err
	}
	return errors.New(what + " " + how)
}

// unorderedMetas refuses a run head whose Metas do not ascend strictly
// within [0, numMeta).
func unorderedMetas(r *flat.Reader, numMeta uint64) error {
	return corrupt(r, "run heads", fmt.Sprintf("not strictly ascending by metagraph within [0, %d)", numMeta))
}

// badCount refuses a count an Entry or a posting cannot hold.
func badCount(r *flat.Reader) error {
	return corrupt(r, "counts", "hold a count of 0 or above 2^32-1")
}

// counts reads the divisor of each metagraph the runs hold and the counts
// written for those of divisor 0, and hands them to layout: a divisor
// beside the runs, a count in flight.
func (d *runDecoder) counts() (err error) {
	r, u := d.r, &d.up
	metas := slices.Clone(u.meta)
	slices.Sort(metas)
	var written []int32
	for _, m := range slices.Compact(metas) {
		switch v := r.ExpGolomb(ordDiv); {
		case v > math.MaxUint32:
			return corrupt(r, "divisor", fmt.Sprintf("of metagraph %d above 2^32-1", m))
		case v == 0:
			written = append(written, m)
		default:
			u.div = append(u.div, divisor{m, uint32(v)})
		}
	}
	for _, m := range written {
		n := r.ExpGolomb(ordSize)
		if n > d.numNodes {
			return corrupt(r, "written counts", fmt.Sprintf("of metagraph %d outnumber the graph's %d nodes", m, d.numNodes))
		}
		v := int64(-1)
		for j := uint64(0); j < n; j++ {
			if len(u.mx) == cap(u.mx) {
				if u.mx, err = flat.Grow(r, u.mx, len(u.mx)+int(n-j)); err != nil {
					return err
				}
			}
			g := r.ExpGolomb(ordCntGap)
			if g == 0 || g > d.numNodes-uint64(v+1) {
				return corrupt(r, "written counts' nodes", fmt.Sprintf("of metagraph %d not strictly ascending below %d", m, d.numNodes))
			}
			v += int64(g)
			c := r.ExpGolomb(ordCnt)
			if c == 0 || c > math.MaxUint32 {
				return badCount(r)
			}
			u.mx = append(u.mx, nodeCount{graph.NodeID(v), Entry{m, uint32(c)}})
		}
	}
	return r.Err()
}

// runDecoder reads the runs above each node of one section.
type runDecoder struct {
	r                 *flat.Reader
	start             int64 // the section's first bit
	numMeta, numNodes uint64
	nPost             uint64 // postings the section claims
	up                upperRuns
	blocks            []int // the current run's copy blocks, the last implied one too
}

func (d *runDecoder) decode() (err error) {
	r, u := d.r, &d.up
	nRuns, nPost := r.ExpGolomb(ordSize), r.ExpGolomb(ordSize)
	if nRuns > math.MaxInt32 || nPost > math.MaxInt32/2 {
		return corrupt(r, "run sizes", "overflow the runs' posting positions")
	}
	if nRuns == 0 {
		if nPost != 0 {
			return corrupt(r, "no runs", "hold postings")
		}
		return r.Err()
	}
	d.nPost = nPost
	if u.off, err = flat.Grow(r, u.off, int(nRuns)+1); err != nil {
		return err
	}
	u.off = append(u.off, 0)
	b := uint(bits.Len64(d.numMeta))
	mask := uint64(1)<<b - 1
	q := int64(-1)
	for uint64(len(u.meta)) < nRuns {
		if len(u.nodes) == cap(u.nodes) {
			if u.nodes, err = flat.Grow(r, u.nodes, int(nRuns)); err != nil {
				return err
			}
			if u.first, err = flat.Grow(r, u.first, int(nRuns)+1); err != nil {
				return err
			}
		}
		// q needs a partner above it, so it lies below numNodes-1.
		g := r.ExpGolomb(ordNode)
		if g == 0 || g >= d.numNodes-uint64(q+1) {
			return corrupt(r, "nodes", fmt.Sprintf("not strictly ascending below %d", int64(d.numNodes)-1))
		}
		q += int64(g)
		u.nodes, u.first = append(u.nodes, graph.NodeID(q)), append(u.first, int32(len(u.meta)))
		head := r.ExpGolomb(ordRunHead)
		l, m := head>>b, head&mask
		if l == 0 || l > d.numMeta || l > nRuns-uint64(len(u.meta)) {
			return corrupt(r, "run count", fmt.Sprintf("of node %d not within [1, %d] or past the runs claimed", q, d.numMeta))
		}
		if m >= d.numMeta {
			return unorderedMetas(r, d.numMeta)
		}
		// The heads first, then the runs: a run's metagraph is known
		// before its postings are read.
		lo := len(u.meta)
		for j := uint64(0); j < l; j++ {
			if j > 0 {
				g := r.ExpGolomb(ordMetaGap)
				if g == 0 || g >= d.numMeta-m {
					return unorderedMetas(r, d.numMeta)
				}
				m += g
			}
			if len(u.meta) == cap(u.meta) {
				if u.meta, err = flat.Grow(r, u.meta, int(nRuns)); err != nil {
					return err
				}
			}
			u.meta = append(u.meta, int32(m))
		}
		for j := lo; j < len(u.meta); j++ {
			if len(u.off) == cap(u.off) {
				if u.off, err = flat.Grow(r, u.off, int(nRuns)+1); err != nil {
					return err
				}
			}
			if err := d.run(graph.NodeID(q), u.meta[j]); err != nil {
				return err
			}
		}
	}
	if uint64(len(u.post)) != nPost {
		return corrupt(r, "postings", "fall short of the count claimed")
	}
	u.first = append(u.first, int32(len(u.meta)))
	return r.Err()
}

// run reads the postings above q of q's run of metagraph m and appends
// them: the copies and the residuals, merged.
func (d *runDecoder) run(q graph.NodeID, m int32) (err error) {
	r, u := d.r, &d.up
	base := len(u.post)
	ref, taken := 0, 0 // the copies read u.post[ref:]
	d.blocks = d.blocks[:0]
	if dist := r.ExpGolomb(ordRef); dist != 0 {
		if dist > uint64(q) {
			return corrupt(r, "reference", fmt.Sprintf("of node %d lies below node 0", q))
		}
		p := q - graph.NodeID(dist)
		pr, ok := u.find(p, m)
		if !ok {
			return corrupt(r, "reference", fmt.Sprintf("of node %d: node %d has no run of metagraph %d above it", q, p, m))
		}
		ps := u.post[u.off[pr]:u.off[pr+1]]
		i, _ := slices.BinarySearchFunc(ps, q+1, comparePosting)
		ref = int(u.off[pr]) + i
		left := uint64(len(ps) - i)
		k := r.ExpGolomb(ordBlocks)
		if k > left+1 {
			return corrupt(r, "copy blocks", "outnumber the reference's postings above the node")
		}
		for j := uint64(0); j < k; j++ {
			bl := r.ExpGolomb(ordBlock)
			if bl > left || (j > 0 && bl == 0) {
				return corrupt(r, "copy blocks", "run past the reference's postings above the node, or one after the first is empty")
			}
			left -= bl
			d.blocks = append(d.blocks, int(bl))
			if j%2 == 0 {
				taken += int(bl)
			}
		}
		d.blocks = append(d.blocks, int(left))
		if k%2 == 0 {
			taken += int(left)
		}
		if 8*int64(base+taken) > maxPostingsPerByte*(r.BitOffset()-d.start) {
			return corrupt(r, "copies", fmt.Sprintf("take the section above %d postings per byte", maxPostingsPerByte))
		}
	}
	h := r.ExpGolomb(ordResHead)
	nRes, ones := h>>1, h&1 == 1
	if nRes+uint64(taken) == 0 {
		return corrupt(r, "run", fmt.Sprintf("of node %d, metagraph %d holds no postings", q, m))
	}
	if nRes > d.nPost || uint64(base+taken) > d.nPost-nRes {
		return corrupt(r, "postings", "run past the count claimed")
	}
	// The copies' room first, where the merge below fills it: at most
	// doubling what has been decoded, so one Grow makes it.
	if cap(u.post) < base+taken {
		if u.post, err = flat.Grow(r, u.post, int(d.nPost)); err != nil {
			return err
		}
	}
	u.post = u.post[:base+taken]
	v := uint64(q)
	for j := uint64(0); j < nRes; j++ {
		g := r.ExpGolomb(ordResGap)
		if g == 0 || g >= d.numNodes-v {
			return corrupt(r, "residual partners", fmt.Sprintf("of node %d not strictly ascending within (%d, %d)", q, q, d.numNodes))
		}
		v += g
		if len(u.post) == cap(u.post) {
			if u.post, err = flat.Grow(r, u.post, int(d.nPost)); err != nil {
				return err
			}
		}
		u.post = append(u.post, posting{graph.NodeID(v), 1})
	}
	res := base + taken // the next residual
	if !ones {
		for j := res; j < len(u.post); j++ {
			c := r.ExpGolomb(ordResCnt)
			if c == 0 || c > math.MaxUint32 {
				return badCount(r)
			}
			u.post[j].count = uint32(c)
		}
	}
	// Merge the copies in ahead of the residuals, which have not moved:
	// the write position never passes the next residual, and the
	// reference lies below base.
	out, end, take := base, len(u.post), true
	for _, bl := range d.blocks {
		if take {
			for _, c := range u.post[ref : ref+bl] {
				for res < end && u.post[res].node < c.node {
					u.post[out] = u.post[res]
					out, res = out+1, res+1
				}
				if res < end && u.post[res].node == c.node {
					return corrupt(r, "residual partner", fmt.Sprintf("%d of node %d is copied too", c.node, q))
				}
				u.post[out] = c
				out++
			}
		}
		ref, take = ref+bl, !take
	}
	u.off = append(u.off, int32(len(u.post)))
	u.top = max(u.top, u.post[len(u.post)-1].node)
	return r.Err()
}

// find returns the run of metagraph m above node p, if p has one.
func (u *upperRuns) find(p graph.NodeID, m int32) (int32, bool) {
	// A reference is a partner just below the node decoding, so p is
	// among the last nodes decoded: gallop back from the end, then search
	// the span that holds it.
	n, bound := len(u.nodes), 1
	for bound < n && u.nodes[n-bound] > p {
		bound *= 2
	}
	from := max(n-bound, 0)
	i, ok := slices.BinarySearch(u.nodes[from:n-bound/2], p)
	if i += from; !ok {
		return 0, false
	}
	lo, hi := u.first[i], u.first[i+1] // p lies below the node decoding
	j, ok := slices.BinarySearch(u.meta[lo:hi], m)
	return lo + int32(j), ok
}
