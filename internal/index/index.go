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
// the counter, a rooted count, Select, an update's gains (patch.go) and
// the decoder (io.go) — hands the m_xy over as the runs above each node
// and the m_x in flight beside them, and upperRuns.layout lays them out,
// each count on its run's header. Every entry holds a raw instance count,
// and a value read is that count. A two-edge metapath is the exception: its
// counts are the graph's common neighbours, so the index stores none of
// them and reads them from the graph it serves (twoedge.go).
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
	// (see adjacency.go), but those of the two-edge metapaths.
	flat adjRuns
	// paths are the two-edge metapaths the index reads from g, ascending
	// by metagraph; no run holds one (twoedge.go). g is nil without them.
	paths []path
	g     *graph.Graph
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
// of x's runs, a view into the index arena — gathered into a slice of its
// own, with the counts of the two-edge metapaths, when the index serves
// any (NodeDot reads the same coordinates without).
func (ix *Index) NodeVec(x graph.NodeID) SparseVec {
	if len(ix.paths) == 0 {
		lo, hi := ix.flat.runs(x)
		return SparseVec{ix.flat.head[lo:hi]}
	}
	var row []Entry
	ix.nodeCoords(x, func(m int32, c uint64) { row = append(row, Entry{m, count32(c, m, x)}) })
	return SparseVec{row}
}

// NodeDot returns NodeVec(x).Dot(w), the same sum in the same order, bit
// for bit, without gathering the row.
func (ix *Index) NodeDot(x graph.NodeID, w []float64) float64 {
	var s float64
	ix.nodeCoords(x, func(m int32, c uint64) { s += float64(c) * w[m] })
	return s
}

// nodeCoords yields the coordinates of m_x ascending by metagraph: the
// headers of x's runs, and each two-edge metapath's count that is not 0.
func (ix *Index) nodeCoords(x graph.NodeID, yield func(meta int32, count uint64)) {
	lo, hi := ix.flat.runs(x)
	head, ps := ix.flat.head[lo:hi], ix.paths
	for len(head) > 0 || len(ps) > 0 {
		if len(ps) > 0 && (len(head) == 0 || ps[0].meta < head[0].Meta) {
			if c := ix.pathNode(x, ps[0]); c > 0 {
				yield(ps[0].meta, c)
			}
			ps = ps[1:]
			continue
		}
		yield(head[0].Meta, uint64(head[0].Count))
		head = head[1:]
	}
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
// each run of the other — the same coordinates from either side — and
// counting each two-edge metapath's from the graph.
func (ix *Index) pairCoords(x, y graph.NodeID, w []float64, yield func(meta int32, count uint32)) {
	rs := &ix.flat
	lo, hi := rs.runs(x)
	in := y // the endpoint searched for
	if ylo, yhi := rs.runs(y); yhi-ylo < hi-lo {
		lo, hi, in = ylo, yhi, x
	}
	ps := ix.paths
	for r := lo; r < hi || len(ps) > 0; {
		if len(ps) > 0 && (r == hi || ps[0].meta < rs.head[r].Meta) {
			if m := ps[0].meta; w == nil || w[m] != 0 {
				if c := ix.pathPair(x, y, ps[0]); c > 0 {
					yield(m, c)
				}
			}
			ps = ps[1:]
			continue
		}
		if m := rs.head[r].Meta; w == nil || w[m] != 0 {
			post := rs.postings(r)
			if i, ok := slices.BinarySearchFunc(post, in, comparePosting); ok {
				yield(m, post[i].count)
			}
		}
		r++
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
// q, its partners above q.
func (ix *Index) NumPairs() (n int) {
	for q := range graph.NodeID(ix.NodeSpan()) {
		ps := ix.Partners(q)
		i, _ := slices.BinarySearch(ps, q+1)
		n += len(ps) - i
	}
	return n
}

// MetaSupport reports, per metagraph, whether any row holds a coordinate
// for it: a two-edge metapath's does when a middle-typed node has two
// end-typed neighbours.
func (ix *Index) MetaSupport() []bool {
	used := make([]bool, ix.numMeta)
	for _, h := range ix.flat.head {
		used[h.Meta] = true
	}
	for _, p := range ix.paths {
		used[p.meta] = slices.ContainsFunc(ix.g.NodesOfType(p.mid), func(b graph.NodeID) bool { return ix.g.DegreeOfType(b, p.end) > 1 })
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
	return ix.renumbered(len(keep), func(m int32) int32 { return remap[m] })
}

// Restrict returns the index without the rows of the metagraphs keep does
// not hold: unlike Project it renumbers nothing, so the result still spans
// NumMeta metagraphs and pairs with the same weight vectors. A row left
// without a coordinate goes. An engine drops the metagraphs no class weighs
// with it.
func (ix *Index) Restrict(keep []bool) *Index {
	return ix.renumbered(ix.numMeta, func(m int32) int32 {
		if keep[m] {
			return m
		}
		return -1
	})
}

// renumbered is ix over numMeta metagraphs with every metagraph m
// renumbered meta(m), or dropped where that is negative: its runs laid out
// anew, its two-edge metapaths renumbered alike.
func (ix *Index) renumbered(numMeta int, meta func(int32) int32) *Index {
	out := &Index{numMeta: numMeta, flat: ix.relaid(meta)}
	for _, p := range ix.paths {
		if m := meta(p.meta); m >= 0 {
			out.paths, out.g = append(out.paths, path{m, p.end, p.mid}), ix.g
		}
	}
	slices.SortFunc(out.paths, comparePathMeta)
	return out
}

// comparePathMeta orders two-edge metapaths by metagraph.
func comparePathMeta(a, b path) int { return cmp.Compare(a.meta, b.meta) }

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
// metagraphs as ix does. No two inputs may hold the same metagraph, and
// the inputs that serve two-edge metapaths serve them from one graph. The
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
	out := &Index{numMeta: ix.numMeta}
	n, lone, with := 0, 0, 0
	for i, s := range srcs {
		n = max(n, len(s.flat.first)-1)
		if len(s.flat.head) > 0 {
			lone, with = i, with+1
		}
		for _, p := range s.paths {
			out.paths, out.g = append(out.paths, path{p.meta + shifts[i], p.end, p.mid}), s.g
		}
	}
	slices.SortFunc(out.paths, comparePathMeta)
	out.flat = srcs[lone].flat // the only input with runs, unshifted, lays out the result's
	if with > 1 || shifts[lone] != 0 {
		out.flat = layRuns(n, func(q graph.NodeID, refs []runRef) []runRef {
			for i, s := range srcs {
				refs = s.flat.appendRuns(refs, q, shifted(shifts[i]))
			}
			return refs
		})
	}
	return out
}

// shifted is the renumbering that adds shift.
func shifted(shift int32) func(int32) int32 { return func(m int32) int32 { return m + shift } }
