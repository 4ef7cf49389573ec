// Package index builds and stores the metagraph vectors of the paper
// (Eq. 1–2): for every metagraph M_i, m_xy[i] counts the instances of M_i
// in which nodes x and y sit on positions symmetric to each other
// (ContainsSym), and m_x[i] counts the instances in which x sits on a
// position symmetric to some other position. The vectors are the features
// of the MGP proximity measure and are precomputed offline (Fig. 3).
//
// An Index stores each count once, in one store: every m_xy in the partner
// runs (adjacency.go), and every m_x as the headers of x's runs — x has a
// run of metagraph m exactly when m_x[m] > 0, because the instance that
// puts x on a symmetric position puts a partner on the position symmetric
// to it — so NodeVec is a view of x's headers. Every producer of counts —
// the counter, a rooted count, Select, an update's gains (patch.go), the
// two-edge merge and the decoder (io.go) — hands the m_xy over as the runs
// above each node and the m_x in flight beside them, and upperRuns.layout
// lays them out, each count on its run's header. Every entry holds a raw
// instance count, and a value read is that count.
package index

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
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
	// flat holds every m_xy as partner runs and every m_x as their headers
	// (see adjacency.go).
	flat adjRuns
}

// section is an index before its runs are laid out: the runs above each
// node, with the node counts in flight, as a section holds them and every
// producer of counts hands them over.
type section struct {
	numMeta int
	up      upperRuns
}

// build lays the section's runs out into an index, refusing counts that do
// not match the runs one to one (upperRuns.layout).
func (s *section) build() (*Index, error) {
	flat, err := s.up.layout(s.numMeta)
	if err != nil {
		return nil, err
	}
	return &Index{numMeta: s.numMeta, flat: flat}, nil
}

// index is build for counts a producer in memory hands over, which match
// their runs by construction: a mismatch is a bug there, and panics.
func (s *section) index() *Index {
	ix, err := s.build()
	if err != nil {
		panic(err)
	}
	return ix
}

// Empty returns the index of no rows spanning numMeta metagraphs: what an
// engine holds before anything is matched, which AddParts grows.
func Empty(numMeta int) *Index { return &Index{numMeta: numMeta} }

// NumMeta returns |M|, the length of the weight vectors this index pairs
// with.
func (ix *Index) NumMeta() int { return ix.numMeta }

// NodeVec returns m_x (empty when x never occurs symmetrically): the headers
// of x's runs, a view into the index arena.
func (ix *Index) NodeVec(x graph.NodeID) SparseVec {
	lo, hi := ix.flat.runs(x)
	return SparseVec{ix.flat.head[lo:hi]}
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
		if m := rs.head[r].Meta; w == nil || w[m] != 0 {
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
	span := ix.NodeSpan()
	last := make([]graph.NodeID, span) // the q+1 that last counted a partner
	for q := range graph.NodeID(span) {
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
	for _, h := range ix.flat.head {
		used[h.Meta] = true
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
	return &Index{numMeta: len(keep), flat: ix.relaid(func(m int32) int32 { return remap[m] })}
}

// Restrict returns the index without the rows of the metagraphs keep does
// not hold: unlike Project it renumbers nothing, so the result still spans
// NumMeta metagraphs and pairs with the same weight vectors. A row left
// without a coordinate goes. An engine drops the metagraphs no class weighs
// with it.
func (ix *Index) Restrict(keep []bool) *Index {
	return &Index{numMeta: ix.numMeta, flat: ix.relaid(func(m int32) int32 {
		if keep[m] {
			return m
		}
		return -1
	})}
}

// Merge combines single-metagraph (or multi-metagraph) indices into one,
// renumbering metagraphs by concatenation: part k's metagraph j becomes
// offset(k)+j, so the merge of the parts MatchParts or Count hands over
// for ms is the index of ms. An engine adds parts to the index it already
// serves (AddParts), which is the same routine with the index as one more
// input.
func Merge(parts ...*Index) *Index {
	slots := make([]int, len(parts))
	n := 0
	for i, p := range parts {
		slots[i] = n
		n += p.numMeta
	}
	return Empty(n).AddParts(slots, parts)
}

// AddParts returns ix with the rows of parts added: part i's metagraph j
// becomes metagraph slots[i]+j of the result, which spans as many
// metagraphs as ix does. No two inputs may hold the same metagraph. The
// receiver is unchanged, and each node's runs in the result are its
// inputs' runs, headers and all, ascending by metagraph: the layout Merge
// gives every part at its slot.
func (ix *Index) AddParts(slots []int, parts []*Index) *Index {
	if len(parts) == 0 {
		return ix
	}
	srcs, shifts := []*Index{ix}, []int32{0}
	for i, p := range parts {
		srcs, shifts = append(srcs, p), append(shifts, int32(slots[i]))
	}
	n, lone, with := 0, 0, 0
	for i, s := range srcs {
		n = max(n, s.NodeSpan())
		if len(s.flat.head) > 0 {
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
	return &Index{numMeta: ix.numMeta, flat: flat}
}

// shifted is the renumbering that adds shift.
func shifted(shift int32) func(int32) int32 { return func(m int32) int32 { return m + shift } }
