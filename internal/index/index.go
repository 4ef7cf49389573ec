// Package index builds and stores the metagraph vectors of the paper
// (Eq. 1–2): for every metagraph M_i, m_xy[i] counts the instances of M_i
// in which nodes x and y sit on positions symmetric to each other
// (ContainsSym), and m_x[i] counts the instances in which x sits on a
// position symmetric to some other position. The vectors are the features
// of the MGP proximity measure and are precomputed offline (Fig. 3).
//
// An Index stores each count once: the m_x rows in a CSR-style node table
// (one []Entry arena behind sorted keys and offsets, so NodeVec is a
// binary search), every m_xy in the partner runs (adjacency.go). Every
// producer of counts — the counter, a rooted count, Select, an update's
// gains (patch.go), the two-edge merge and the decoder (io.go) — hands the
// m_xy over as the runs above each node, and upperRuns.layout lays them
// out. Every entry holds a raw instance count, and a value read is that
// count.
package index

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metagraph"
)

// PairKey identifies an unordered node pair.
type PairKey uint64

// MakePairKey builds the key for the unordered pair {x, y}.
func MakePairKey(x, y graph.NodeID) PairKey {
	if x > y {
		x, y = y, x
	}
	return PairKey(uint64(uint32(x))<<32 | uint64(uint32(y)))
}

// Nodes returns the pair's two nodes with the smaller one first.
func (k PairKey) Nodes() (graph.NodeID, graph.NodeID) {
	return graph.NodeID(uint32(k >> 32)), graph.NodeID(uint32(k))
}

// String formats the pair as (x,y), smaller node first.
func (k PairKey) String() string {
	x, y := k.Nodes()
	return fmt.Sprintf("(%d,%d)", x, y)
}

// Entry is one non-zero coordinate of a sparse metagraph vector: the raw
// instance count of Eq. 1–2.
type Entry struct {
	Meta  int32  // metagraph index within M
	Count uint32 // instance count, at least 1
}

// SparseVec is one row of the index, sorted by Meta: a value is its count.
type SparseVec struct {
	ent []Entry
}

// compareEntryMeta orders entries by metagraph index.
func compareEntryMeta(a, b Entry) int { return cmp.Compare(a.Meta, b.Meta) }

// Len returns the number of non-zero coordinates.
func (v SparseVec) Len() int { return len(v.ent) }

// At returns the metagraph and value of coordinate i, 0 <= i < Len.
func (v SparseVec) At(i int) (meta int, val float64) {
	e := v.ent[i]
	return int(e.Meta), float64(e.Count)
}

// Dot returns v · w for a dense weight vector w indexed by metagraph. It is
// the scan every ranked read runs; Dot stays small enough for the compiler
// to inline it there.
func (v SparseVec) Dot(w []float64) float64 {
	var s float64
	for _, e := range v.ent {
		s += float64(e.Count) * w[e.Meta]
	}
	return s
}

// Get returns the value for metagraph i (0 when absent).
func (v SparseVec) Get(i int) float64 {
	if j, ok := slices.BinarySearchFunc(v.ent, Entry{Meta: int32(i)}, compareEntryMeta); ok {
		_, val := v.At(j)
		return val
	}
	return 0
}

// csr is one table of the index: rows of Entry keyed by K, stored as a
// contiguous arena with sorted keys and per-row offsets. The zero value is
// the empty table.
type csr[K cmp.Ordered] struct {
	keys []K
	off  []int32 // len(keys)+1 when keys is non-empty
	ent  []Entry // arena; row i is ent[off[i]:off[i+1]]
}

// row returns the row for key k, or nil when absent. Allocation-free.
func (c *csr[K]) row(k K) []Entry {
	i := findKey(c.keys, k)
	if i < 0 {
		return nil
	}
	return c.ent[c.off[i]:c.off[i+1]]
}

// appendRow appends the row of key k, which must be above every key c
// holds.
func (c *csr[K]) appendRow(k K, row []Entry) {
	if len(c.off) == 0 {
		c.off = append(c.off, 0)
	}
	c.keys = append(c.keys, k)
	c.ent = append(c.ent, row...)
	c.off = append(c.off, int32(len(c.ent)))
}

// each calls yield with every row of c, in key order.
func (c *csr[K]) each(yield func(K, []Entry)) {
	for i, k := range c.keys {
		yield(k, c.ent[c.off[i]:c.off[i+1]])
	}
}

// findKey binary-searches a sorted key slice, returning the position of k
// or -1. slices.BinarySearch is closure-free, so reads stay
// allocation-free.
func findKey[K cmp.Ordered](keys []K, k K) int {
	i, ok := slices.BinarySearch(keys, k)
	if !ok {
		return -1
	}
	return i
}

// count32 narrows the instance count of metagraph meta at key k to the width
// an Entry stores. The offline build has no error path (MatchParts returns
// parts, not errors), so a count that does not fit panics, naming where it
// arose, instead of wrapping into a wrong answer.
func count32[K any](c uint64, meta int32, k K) uint32 {
	if c > math.MaxUint32 {
		panic(fmt.Sprintf("index: metagraph %d, key %v: %d instances overflow the uint32 count", meta, k, c))
	}
	return uint32(c)
}

// Index holds the frozen metagraph vectors for one graph and one metagraph
// set M. It is immutable once a constructor returns it and safe for
// concurrent reads: every constructor — WithPatch (patch.go) among them —
// lays out the runs, so no read ever builds anything.
type Index struct {
	numMeta int
	mx      csr[graph.NodeID]
	// flat holds every m_xy as partner runs (see adjacency.go).
	flat adjRuns
	// spans[v] is the position of m_v (the empty span when v has none). It
	// covers every node key and every partner of the index.
	spans []span
}

// section is an index before its runs are laid out: the node table and
// the runs above each node, as a section holds them and every producer of
// counts hands them over.
type section struct {
	numMeta int
	mx      csr[graph.NodeID]
	up      upperRuns
}

// index lays the section's runs out into an index.
func (s *section) index() *Index {
	return (&Index{numMeta: s.numMeta, mx: s.mx, flat: s.up.layout(s.numMeta)}).finish()
}

// finish sets the node-row positions of the index's node table and runs,
// and returns the index. Every constructor ends with it.
func (ix *Index) finish() *Index {
	n := len(ix.flat.first) - 1
	if keys := ix.mx.keys; len(keys) > 0 {
		n = max(n, int(keys[len(keys)-1])+1)
	}
	if n <= 0 {
		return ix
	}
	ix.spans = make([]span, n)
	for r, v := range ix.mx.keys {
		ix.spans[v] = span{ix.mx.off[r], ix.mx.off[r+1]}
	}
	return ix
}

// NumMeta returns |M|, the length of the weight vectors this index pairs
// with.
func (ix *Index) NumMeta() int { return ix.numMeta }

// NodeVec returns m_x (empty when x never occurs symmetrically), a view into
// the index arena.
func (ix *Index) NodeVec(x graph.NodeID) SparseVec {
	return SparseVec{ix.mx.row(x)}
}

// PairVec returns m_xy (empty when x and y never co-occur symmetrically).
// The row is gathered into a slice of its own, the one allocation; PairDot
// reads the same coordinates without.
func (ix *Index) PairVec(x, y graph.NodeID) SparseVec {
	var row []Entry
	ix.pairCoords(x, y, nil, func(m int32, c uint32) { row = append(row, Entry{m, c}) })
	return SparseVec{row}
}

// pairCoords yields the coordinates of m_xy but those w weighs 0 (nil:
// none), ascending by metagraph, searching the endpoint with more runs in
// each run of the other: the same coordinates from either side.
func (ix *Index) pairCoords(x, y graph.NodeID, w []float64, yield func(meta int32, count uint32)) {
	rs := &ix.flat
	lo, hi := rs.runs(x)
	if ylo, yhi := rs.runs(y); yhi-ylo < hi-lo {
		lo, hi, y = ylo, yhi, x
	}
	for r := lo; r < hi; r++ {
		if m := rs.meta[r]; w == nil || w[m] != 0 {
			post := rs.postings(r)
			if i, ok := slices.BinarySearchFunc(post, y, comparePosting); ok {
				yield(m, post[i].count)
			}
		}
	}
}

// PairDot returns PairVec(x, y).Dot(w), the same sum in the same order,
// bit for bit, without gathering the row: the by-key read of Proximity,
// free of allocation. A term of weight 0 is skipped: a finite value adds
// a zero there.
func (ix *Index) PairDot(x, y graph.NodeID, w []float64) float64 {
	var s float64
	ix.pairCoords(x, y, w, func(m int32, c uint32) { s += float64(c) * w[m] })
	return s
}

// NumPairs returns the number of node pairs with a non-zero m_xy: per node
// q, the distinct partners above q in its runs.
func (ix *Index) NumPairs() (n int) {
	last := make([]graph.NodeID, len(ix.spans)) // the q+1 that last counted a partner
	for q := range graph.NodeID(len(ix.spans)) {
		lo, hi := ix.flat.runs(q)
		for r := lo; r < hi; r++ {
			for _, p := range ix.flat.postings(r) {
				if p.node > q && last[p.node] != q+1 {
					last[p.node], n = q+1, n+1
				}
			}
		}
	}
	return n
}

// MetaSupport reports, per metagraph, whether any row holds a coordinate
// for it.
func (ix *Index) MetaSupport() []bool {
	used := make([]bool, ix.numMeta)
	for _, e := range ix.mx.ent {
		used[e.Meta] = true
	}
	for _, m := range ix.flat.meta {
		used[m] = true
	}
	return used
}

// Project returns a view of the index restricted to the metagraph subset
// given by keep (indices into the original M), renumbered 0..len(keep)-1 in
// the given order. Dual-stage training uses it to train on seeds and
// candidates without re-matching anything.
func (ix *Index) Project(keep []int) *Index {
	remap := make([]int32, ix.numMeta)
	for i := range remap {
		remap[i] = -1
	}
	for newI, oldI := range keep {
		remap[oldI] = int32(newI)
	}
	return ix.remapped(len(keep), remap)
}

// Restrict returns the index without the rows of the metagraphs keep does
// not hold: unlike Project it renumbers nothing, so the result still spans
// NumMeta metagraphs and pairs with the same weight vectors. A row left
// without a coordinate goes. An engine drops the metagraphs no class weighs
// with it.
func (ix *Index) Restrict(keep []bool) *Index {
	remap := make([]int32, ix.numMeta)
	for i := range remap {
		remap[i] = -1
		if keep[i] {
			remap[i] = int32(i)
		}
	}
	return ix.remapped(ix.numMeta, remap)
}

// remapped is the index with metagraph i renumbered remap[i] (-1 drops it)
// in an index spanning numMeta metagraphs.
func (ix *Index) remapped(numMeta int, remap []int32) *Index {
	meta := func(m int32) int32 { return remap[m] }
	return (&Index{
		numMeta: numMeta,
		mx:      mergeCSR([]source[graph.NodeID]{{&ix.mx, meta}}),
		flat:    ix.relaid(meta),
	}).finish()
}

// Merge combines single-metagraph (or multi-metagraph) indices into one,
// renumbering metagraphs by concatenation: part k's metagraph j becomes
// offset(k)+j. BuildParallel merges the parts its workers matched; an
// engine adds parts to the index it already serves (AddParts), which is the
// same routine with the index as one more input.
func Merge(parts ...*Index) *Index {
	slots := make([]int, len(parts))
	n := 0
	for i, p := range parts {
		slots[i] = n
		n += p.numMeta
	}
	return (&Index{numMeta: n}).AddParts(slots, parts)
}

// AddParts returns ix with the rows of parts added: part i's metagraph j
// becomes metagraph slots[i]+j of the result, which spans as many
// metagraphs as ix does. No two inputs may hold the same metagraph. The
// receiver is unchanged, and the result
// is the index one Builder fed every metagraph at its slot would freeze.
func (ix *Index) AddParts(slots []int, parts []*Index) *Index {
	if len(parts) == 0 {
		return ix
	}
	srcs, shifts := []*Index{ix}, []int32{0}
	for i, p := range parts {
		srcs, shifts = append(srcs, p), append(shifts, int32(slots[i]))
	}
	mx := make([]source[graph.NodeID], len(srcs))
	n, lone, with := 0, 0, 0
	for i, s := range srcs {
		mx[i] = source[graph.NodeID]{&s.mx, shifted(shifts[i])}
		n = max(n, len(s.flat.first)-1)
		if len(s.flat.meta) > 0 {
			lone, with = i, with+1
		}
	}
	flat := srcs[lone].flat // the only input with runs, unshifted, lays out the result's
	if with > 1 || shifts[lone] != 0 {
		flat = layRuns(n, func(q graph.NodeID, refs []runRef) []runRef {
			for i, s := range srcs {
				refs = s.flat.appendRuns(refs, q, shifted(shifts[i]))
			}
			return refs
		})
	}
	return (&Index{numMeta: ix.numMeta, mx: mergeCSR(mx), flat: flat}).finish()
}

// source is one input of mergeCSR: a table whose rows enter the merge with
// every Meta m renumbered meta(m), or dropped where that is negative.
type source[K cmp.Ordered] struct {
	table *csr[K]
	meta  func(int32) int32
}

// shifted is the renumbering that adds shift.
func shifted(shift int32) func(int32) int32 { return func(m int32) int32 { return m + shift } }

// mergeCSR unions row tables: the row of a key is every entry its inputs
// hold for it, renumbered, ascending by metagraph, and a key left without
// an entry goes. No two inputs may give one key the same metagraph. Every
// input's keys ascend, so the merge walks them side by side, a cursor per
// input: the least key any input has left is the next row, gathered from
// the inputs that hold it and sorted by metagraph only when a renumbering
// put it out of order. The inputs are an index and the parts added to it,
// or the few rows of a patch: a handful, so the least key is found by a
// scan of the cursors.
func mergeCSR[K cmp.Ordered](srcs []source[K]) csr[K] {
	n := 0
	for _, s := range srcs {
		for _, e := range s.table.ent {
			if s.meta(e.Meta) >= 0 {
				n++
			}
		}
	}
	var out csr[K]
	if n == 0 {
		return out
	}
	out.off, out.ent = []int32{0}, make([]Entry, 0, n)
	at := make([]int, len(srcs)) // each input's next row
	for {
		var k K
		found := false
		for i, s := range srcs {
			if r := at[i]; r < len(s.table.keys) && (!found || s.table.keys[r] < k) {
				k, found = s.table.keys[r], true
			}
		}
		if !found {
			return out
		}
		start := len(out.ent)
		for i, s := range srcs {
			c := s.table
			if r := at[i]; r < len(c.keys) && c.keys[r] == k {
				for _, e := range c.ent[c.off[r]:c.off[r+1]] {
					if m := s.meta(e.Meta); m >= 0 {
						out.ent = append(out.ent, Entry{m, e.Count})
					}
				}
				at[i]++
			}
		}
		if row := out.ent[start:]; len(row) > 0 {
			if !slices.IsSortedFunc(row, compareEntryMeta) {
				slices.SortFunc(row, compareEntryMeta)
			}
			out.keys, out.off = append(out.keys, k), append(out.off, int32(len(out.ent)))
		}
	}
}

// Builder accumulates instance counts metagraph by metagraph and freezes
// them into an Index. Each AddMetagraph counts one metagraph into a part
// index of its own (count.go), with scratch the builder reuses across
// calls; Build adds the parts to an empty index at their slots.
type Builder struct {
	numMeta int
	parts   []*Index // parts[i] holds metagraph i alone, nil until added
	sc      *counter
}

// NewBuilder returns a Builder for a metagraph set of the given size.
func NewBuilder(numMeta int) *Builder {
	return &Builder{numMeta: numMeta, parts: make([]*Index, numMeta), sc: &counter{}}
}

// AddMetagraph matches metagraph number i with the given engine and counts
// its contribution to every m_x and m_xy. Asymmetric metagraphs contribute
// nothing (ContainsSym can never hold) and are skipped without matching. An
// i outside [0, numMeta), or one already added, panics: its rows would
// index past every weight vector, or count one metagraph twice.
func (b *Builder) AddMetagraph(i int, m *metagraph.Metagraph, matcher match.Matcher) {
	if i < 0 || i >= b.numMeta {
		panic(fmt.Sprintf("index: AddMetagraph(%d) on a builder of %d metagraphs", i, b.numMeta))
	}
	if b.parts[i] != nil {
		panic(fmt.Sprintf("index: AddMetagraph(%d): metagraph %d was already added", i, i))
	}
	b.parts[i] = b.sc.part(m, matcher)
}

// Build freezes the accumulated counts into an immutable Index.
func (b *Builder) Build() *Index {
	var slots []int
	var parts []*Index
	for i, p := range b.parts {
		if p != nil {
			slots, parts = append(slots, i), append(parts, p)
		}
	}
	return (&Index{numMeta: b.numMeta}).AddParts(slots, parts)
}
