// Package index builds and stores the metagraph vectors of the paper
// (Eq. 1–2): for every metagraph M_i, m_xy[i] counts the instances of M_i
// in which nodes x and y sit on positions symmetric to each other
// (ContainsSym), and m_x[i] counts the instances in which x sits on a
// position symmetric to some other position. The vectors are the features
// of the MGP proximity measure and are precomputed offline (Fig. 3).
//
// The frozen Index uses a flat CSR-style layout mirroring the graph
// substrate: all rows of a table live in one contiguous []Entry arena,
// addressed through sorted key and offset slices. Reads by key (NodeVec,
// PairVec) are a binary search plus a slice header — no allocation, no
// pointer chasing — the candidate scan of a ranked query follows the
// derived partner adjacency (adjacency.go), which lays every query node's
// pair rows out in scan order and searches nothing, and Merge/Project
// operate on whole arenas instead of one small map row at a time. Every
// entry holds a raw instance count; a transform of the counts is a property
// of the index, applied as a value is read (Transform, SparseVec).
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
// instance count of Eq. 1–2. Whatever transform the index applies is applied
// when the value is read (SparseVec), never stored.
type Entry struct {
	Meta  int32  // metagraph index within M
	Count uint32 // instance count, at least 1
}

// SparseVec is one row of the index, sorted by Meta: its raw counts and the
// transform its index reads them through (nil: the count itself). Dot, Get
// and At are the only readers of a value, so the choice between raw and
// transformed is made once per row.
type SparseVec struct {
	ent []Entry
	f   func(float64) float64
}

// compareEntryMeta orders entries by metagraph index.
func compareEntryMeta(a, b Entry) int { return cmp.Compare(a.Meta, b.Meta) }

// Len returns the number of non-zero coordinates.
func (v SparseVec) Len() int { return len(v.ent) }

// At returns the metagraph and value of coordinate i, 0 <= i < Len.
func (v SparseVec) At(i int) (meta int, val float64) {
	e := v.ent[i]
	if v.f == nil {
		return int(e.Meta), float64(e.Count)
	}
	return int(e.Meta), v.f(float64(e.Count))
}

// Dot returns v · w for a dense weight vector w indexed by metagraph. The
// raw loop is the scan every ranked read runs; Dot stays small enough for
// the compiler to inline it there.
func (v SparseVec) Dot(w []float64) float64 {
	if v.f == nil {
		var s float64
		for _, e := range v.ent {
			s += float64(e.Count) * w[e.Meta]
		}
		return s
	}
	return dotThrough(v.ent, v.f, w)
}

// dotThrough is Dot of a row read through transform f.
func dotThrough(ent []Entry, f func(float64) float64, w []float64) float64 {
	var s float64
	for _, e := range ent {
		s += f(float64(e.Count)) * w[e.Meta]
	}
	return s
}

// Get returns the value for metagraph i (0 when absent).
func (v SparseVec) Get(i int) float64 {
	lo, hi := 0, len(v.ent)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v.ent[mid].Meta < int32(i) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(v.ent) && v.ent[lo].Meta == int32(i) {
		_, val := v.At(lo)
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
// set M. It is immutable after Build and safe for concurrent reads.
//
// A live-updated index additionally carries a patch overlay (see patch.go):
// rows recomputed after a graph delta shadow their flat-CSR originals until
// Compact folds them into fresh arenas. Reads stay allocation-free either
// way; an overlaid index pays one extra binary search into the (small)
// overlay per row lookup.
type Index struct {
	numMeta int
	// f is the transform every value is read through (nil: the raw count).
	// The arenas hold raw counts whatever it is (see Transform).
	f   func(float64) float64
	mx  csr[graph.NodeID]
	mxy csr[PairKey]
	// ovlMx/ovlMxy hold replacement rows from WithPatch. A key present
	// here fully shadows the base row; overlay rows are never empty (a
	// delta only adds instances, so no row ever vanishes).
	ovlMx  csr[graph.NodeID]
	ovlMxy csr[PairKey]
	// adj lists, per node, every y that shares at least one instance with
	// x symmetrically — the candidates the online phase ranks — with their
	// pair rows in scan order (see adjacency.go). Never nil. It is derived
	// from the tables when a writer finishes the index for readers, or on
	// first use: the single-metagraph parts the parallel build produces are
	// merged without their adjacency ever being read, so building it in
	// every constructor would be pure waste.
	adj *lazyAdjacency
}

// NumMeta returns |M|, the length of the weight vectors this index pairs
// with.
func (ix *Index) NumMeta() int { return ix.numMeta }

// NodeVec returns m_x (empty when x never occurs symmetrically), a view into
// the index arena read through the index's transform.
func (ix *Index) NodeVec(x graph.NodeID) SparseVec {
	return SparseVec{ix.nodeRow(x), ix.f}
}

// PairVec returns m_xy (empty when x and y never co-occur symmetrically), a
// view into the index arena read through the index's transform.
func (ix *Index) PairVec(x, y graph.NodeID) SparseVec {
	return SparseVec{ix.pairRow(x, y), ix.f}
}

// nodeRow returns the raw row of node x, read through the overlay.
func (ix *Index) nodeRow(x graph.NodeID) []Entry {
	if len(ix.ovlMx.keys) != 0 {
		if i := findKey(ix.ovlMx.keys, x); i >= 0 {
			return ix.ovlMx.ent[ix.ovlMx.off[i]:ix.ovlMx.off[i+1]]
		}
	}
	return ix.mx.row(x)
}

// pairRow returns the raw row of pair {x, y}, read through the overlay.
func (ix *Index) pairRow(x, y graph.NodeID) []Entry {
	k := MakePairKey(x, y)
	if len(ix.ovlMxy.keys) != 0 {
		if i := findKey(ix.ovlMxy.keys, k); i >= 0 {
			return ix.ovlMxy.ent[ix.ovlMxy.off[i]:ix.ovlMxy.off[i+1]]
		}
	}
	return ix.mxy.row(k)
}

// Partners returns the nodes that co-occur symmetrically with x in at least
// one instance, in ascending order. The slice is shared; do not modify.
func (ix *Index) Partners(x graph.NodeID) []graph.NodeID { return ix.Candidates(x).Nodes }

// NumPairs returns the number of node pairs with a non-zero m_xy.
func (ix *Index) NumPairs() int {
	n := len(ix.mxy.keys)
	for _, k := range ix.ovlMxy.keys {
		if findKey(ix.mxy.keys, k) < 0 {
			n++
		}
	}
	return n
}

// MetaSupport reports, per metagraph, whether any row holds a coordinate
// for it.
func (ix *Index) MetaSupport() []bool {
	used := make([]bool, ix.numMeta)
	for _, ent := range [][]Entry{ix.mx.ent, ix.mxy.ent, ix.ovlMx.ent, ix.ovlMxy.ent} {
		for _, e := range ent {
			used[e.Meta] = true
		}
	}
	return used
}

// Transform returns the index with every value read as f(count); the paper
// mentions log-style transforms of the raw counts (Sect. II-A). A nil f reads
// the raw counts. The result shares everything with the receiver — tables,
// overlay and adjacency hold raw counts either way — so it costs O(1), and
// WithPatch, Compact, AddParts and Project carry the transform forward.
func (ix *Index) Transform(f func(float64) float64) *Index {
	return &Index{numMeta: ix.numMeta, f: f, mx: ix.mx, mxy: ix.mxy, ovlMx: ix.ovlMx, ovlMxy: ix.ovlMxy, adj: ix.adj}
}

// Project returns a view of the index restricted to the metagraph subset
// given by keep (indices into the original M), renumbered 0..len(keep)-1 in
// the given order. Dual-stage training uses it to train on seeds and
// candidates without re-matching anything. When keep is ascending (the
// common case) projected rows inherit the source order and no sorting
// happens at all.
func (ix *Index) Project(keep []int) *Index {
	ix = ix.Compact()
	remap := make([]int32, ix.numMeta)
	for i := range remap {
		remap[i] = -1
	}
	ascending := true
	for newI, oldI := range keep {
		remap[oldI] = int32(newI)
		if newI > 0 && oldI <= keep[newI-1] {
			ascending = false
		}
	}
	return &Index{
		numMeta: len(keep),
		f:       ix.f,
		mx:      projectCSR(ix.mx, remap, ascending),
		mxy:     projectCSR(ix.mxy, remap, ascending),
		adj:     &lazyAdjacency{},
	}
}

// projectCSR rewrites one table under the metagraph renumbering, dropping
// rows that lose all coordinates. When the renumbering is not monotone the
// surviving rows are re-sorted in place in the new arena.
func projectCSR[K cmp.Ordered](c csr[K], remap []int32, ascending bool) csr[K] {
	if len(c.keys) == 0 {
		return csr[K]{}
	}
	out := csr[K]{
		keys: make([]K, 0, len(c.keys)),
		off:  make([]int32, 1, len(c.keys)+1),
		ent:  make([]Entry, 0, len(c.ent)),
	}
	for i, k := range c.keys {
		start := len(out.ent)
		for _, e := range c.ent[c.off[i]:c.off[i+1]] {
			if ni := remap[e.Meta]; ni >= 0 {
				out.ent = append(out.ent, Entry{ni, e.Count})
			}
		}
		if len(out.ent) == start {
			continue
		}
		if !ascending {
			slices.SortFunc(out.ent[start:], compareEntryMeta)
		}
		out.keys = append(out.keys, k)
		out.off = append(out.off, int32(len(out.ent)))
	}
	if len(out.keys) == 0 {
		return csr[K]{}
	}
	return out
}

// Merge combines single-metagraph (or multi-metagraph) indices into one,
// renumbering metagraphs by concatenation: part k's metagraph j becomes
// offset(k)+j. BuildParallel merges the parts its workers matched; an
// engine adds parts to the index it already serves (AddParts), which is the
// same routine with the index as one more input. The result reads raw
// counts.
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
// receiver is unchanged (a patched one is compacted first) and the result's
// adjacency starts unbuilt. Whatever the order parts arrive in, the result
// is the index one Builder fed every metagraph at its slot would freeze,
// read through the receiver's transform (parts add counts, not values).
func (ix *Index) AddParts(slots []int, parts []*Index) *Index {
	ix = ix.Compact()
	mx := []source[graph.NodeID]{{&ix.mx, 0}}
	mxy := []source[PairKey]{{&ix.mxy, 0}}
	for i, p := range parts {
		p = p.Compact()
		mx = append(mx, source[graph.NodeID]{&p.mx, int32(slots[i])})
		mxy = append(mxy, source[PairKey]{&p.mxy, int32(slots[i])})
	}
	return &Index{numMeta: ix.numMeta, f: ix.f, mx: mergeCSR(mx), mxy: mergeCSR(mxy), adj: &lazyAdjacency{}}
}

// source is one input of mergeCSR: a table whose rows enter the merge with
// every Meta raised by shift.
type source[K cmp.Ordered] struct {
	table *csr[K]
	shift int32
}

// mergeCSR unions row tables in one k-way pass over their already sorted
// keys: a heap of the inputs by next unread key yields the keys ascending,
// and the row of a key is the rows its inputs hold for it, laid end to end
// in input order. When the inputs' shifted Metas ascend in that order (parts
// concatenated by Merge, gains lifted by MergeGains) the row is sorted as
// laid; a row that is not (parts landing between the metagraphs of an
// existing index) is sorted in place. Linear in the input keys and entries
// times log(inputs) — no union to sort, no key searched. A lone non-empty
// input with no shift is the union already and is returned as it is.
func mergeCSR[K cmp.Ordered](srcs []source[K]) csr[K] {
	totalKeys, totalEnt := 0, 0
	var lone source[K]
	for _, s := range srcs {
		totalKeys += len(s.table.keys)
		totalEnt += len(s.table.ent)
		if len(s.table.keys) > 0 {
			lone = s
		}
	}
	if totalEnt == 0 {
		return csr[K]{}
	}
	if len(lone.table.keys) == totalKeys && lone.shift == 0 {
		return *lone.table
	}
	next := make([]int, len(srcs)) // next unread row of each input
	// heap holds the inputs with rows left, the smallest (next key, input
	// number) at the root.
	heap := make([]int, 0, len(srcs))
	less := func(a, b int) bool {
		ka, kb := srcs[a].table.keys[next[a]], srcs[b].table.keys[next[b]]
		return ka < kb || ka == kb && a < b
	}
	siftDown := func(i int) {
		for {
			min := i
			for c := 2*i + 1; c <= 2*i+2 && c < len(heap); c++ {
				if less(heap[c], heap[min]) {
					min = c
				}
			}
			if min == i {
				return
			}
			heap[i], heap[min] = heap[min], heap[i]
			i = min
		}
	}
	for i, s := range srcs {
		if len(s.table.keys) > 0 {
			heap = append(heap, i)
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}

	out := csr[K]{
		keys: make([]K, 0, totalKeys),
		off:  make([]int32, 1, totalKeys+1),
		ent:  make([]Entry, 0, totalEnt),
	}
	for len(heap) > 0 {
		k := srcs[heap[0]].table.keys[next[heap[0]]]
		start, sorted := len(out.ent), true
		for len(heap) > 0 && srcs[heap[0]].table.keys[next[heap[0]]] == k {
			i := heap[0]
			t, shift := srcs[i].table, srcs[i].shift
			for _, e := range t.ent[t.off[next[i]]:t.off[next[i]+1]] {
				e.Meta += shift
				if n := len(out.ent); n > start && out.ent[n-1].Meta > e.Meta {
					sorted = false
				}
				out.ent = append(out.ent, e)
			}
			if next[i]++; next[i] == len(t.keys) {
				heap[0] = heap[len(heap)-1]
				heap = heap[:len(heap)-1]
			}
			siftDown(0)
		}
		if !sorted {
			slices.SortFunc(out.ent[start:], compareEntryMeta)
		}
		out.keys = append(out.keys, k)
		out.off = append(out.off, int32(len(out.ent)))
	}
	if len(out.keys) < totalKeys {
		// Inputs shared keys: do not pin the oversized scratch.
		out.keys, out.off = slices.Clone(out.keys), slices.Clone(out.off)
	}
	return out
}

// Builder accumulates instance counts metagraph by metagraph and freezes
// them into an Index. Each AddMetagraph counts one metagraph into a table of
// its own by sorting its instance keys (count.go), with scratch the builder
// reuses across calls; Build merges the tables, or returns a lone one as it
// is.
type Builder struct {
	numMeta int
	added   []bool
	// mx[i] and mxy[i] hold the rows of metagraph i alone.
	mx  []csr[graph.NodeID]
	mxy []csr[PairKey]
	sc  *counter
}

// NewBuilder returns a Builder for a metagraph set of the given size.
func NewBuilder(numMeta int) *Builder { return newBuilder(numMeta, &counter{}) }

// newBuilder returns a Builder that counts with the scratch sc.
func newBuilder(numMeta int, sc *counter) *Builder {
	return &Builder{
		numMeta: numMeta,
		added:   make([]bool, numMeta),
		mx:      make([]csr[graph.NodeID], numMeta),
		mxy:     make([]csr[PairKey], numMeta),
		sc:      sc,
	}
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
	if b.added[i] {
		panic(fmt.Sprintf("index: AddMetagraph(%d): metagraph %d was already added", i, i))
	}
	b.added[i] = true
	symPairs := m.SymmetricPairs()
	if len(symPairs) == 0 {
		return
	}
	// Unique positions that participate in any symmetric pair (for Eq. 2).
	onPair := make([]bool, m.N())
	for _, p := range symPairs {
		onPair[p.U], onPair[p.V] = true, true
	}
	positions := make([]int, 0, m.N())
	for p, on := range onPair {
		if on {
			positions = append(positions, p)
		}
	}
	b.mx[i], b.mxy[i] = b.sc.count(m, matcher, symPairs, positions, int32(i))
}

// Build freezes the accumulated counts into an immutable Index. The tables
// enter the merge in metagraph order, so every merged row is laid out
// sorted.
func (b *Builder) Build() *Index {
	mx := make([]source[graph.NodeID], b.numMeta)
	mxy := make([]source[PairKey], b.numMeta)
	for i := range b.numMeta {
		mx[i] = source[graph.NodeID]{&b.mx[i], 0}
		mxy[i] = source[PairKey]{&b.mxy[i], 0}
	}
	return &Index{numMeta: b.numMeta, mx: mergeCSR(mx), mxy: mergeCSR(mxy), adj: &lazyAdjacency{}}
}
