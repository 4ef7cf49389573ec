// Incremental index maintenance. Deltas are additive, so a graph mutation
// never destroys an instance and creates exactly the instances that map a
// metagraph edge onto an added graph edge (Def. 2). RematchDelta enumerates
// those — SymISO pinned at each added edge, see match.GainedInstanceSets —
// and counts, per key, the instances GAINED; a row after the delta is the
// row before it plus its gains. WithPatch adds the gains into the node rows
// and partner runs they change and lays the index out anew, without
// matching anything again: the result is the index a from-scratch build of
// the final graph would give.
package index

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metagraph"
)

// Patch is what one update gained: per key, the raw instance counts to ADD
// to the rows of the index it lands on (Eq. 1–2 count instances, and a
// delta only adds them). Rows are canonical (keys ascending, entries
// ascending by Meta) and never empty.
type Patch struct {
	numMeta int
	mx      csr[graph.NodeID]
	mxy     csr[PairKey]
	// enumerated is the work the re-match behind the patch did.
	enumerated int64
}

// Empty reports whether the patch gains nothing.
func (p *Patch) Empty() bool { return len(p.mx.keys) == 0 && len(p.mxy.keys) == 0 }

// NodeKeys returns the node keys that gain, ascending. The slice is shared;
// do not modify.
func (p *Patch) NodeKeys() []graph.NodeID { return p.mx.keys }

// Enumerated returns the number of search nodes the enumeration behind
// the patch visited (match.SymISO.Visited); 0 for a hand-built patch.
func (p *Patch) Enumerated() int64 { return p.enumerated }

// MergeGains lifts the gains of several re-matches onto one index spanning
// numMeta metagraphs: patch i's metagraph j becomes metagraph slots[i]+j,
// and a key's row is the coordinates that gained, wherever they came from.
// One WithPatch of the result then adds every gain to the merged index — a
// row changes only in the coordinates that gained. The work counts add up.
func MergeGains(numMeta int, slots []int, patches []*Patch) *Patch {
	out := &Patch{numMeta: numMeta}
	mx := make([]source[graph.NodeID], len(patches))
	mxy := make([]source[PairKey], len(patches))
	for i, p := range patches {
		mx[i] = source[graph.NodeID]{&p.mx, shifted(int32(slots[i]))}
		mxy[i] = source[PairKey]{&p.mxy, shifted(int32(slots[i]))}
		out.enumerated += p.enumerated
	}
	out.mx, out.mxy = mergeCSR(mx), mergeCSR(mxy)
	return out
}

// WithPatch returns a new index holding the receiver's counts plus the
// patch's gains; the receiver is unchanged and the transform carries over.
// It is the one place gains meet stored counts, added as integers: the
// index stores raw counts whatever its transform, so each sum is the count
// a from-scratch match of the grown graph gives. The node gains are merged
// into the node table; the pair gains are laid out as runs, and one pass
// over the runs merges every gained endpoint's runs with its gain runs and
// copies everyone else's as they are (adjRuns.plus). A sum beyond 2^32-1 is
// refused with an error naming the metagraph and key. The result is laid
// out as a from-scratch build of the grown graph lays it out, so it writes
// the same bytes. The cost is one copy of the node table and of the runs,
// plus the gained endpoints' runs.
func (ix *Index) WithPatch(p *Patch) (*Index, error) {
	if p.numMeta != ix.numMeta {
		panic(fmt.Sprintf("index: patch spans %d metagraphs, index %d", p.numMeta, ix.numMeta))
	}
	if p.Empty() {
		return ix, nil
	}
	mx, err := addGains(&ix.mx, &p.mx)
	if err != nil {
		return nil, err
	}
	flat, err := ix.flat.plus(buildRuns(&p.mxy))
	if err != nil {
		return nil, err
	}
	return (&Index{numMeta: ix.numMeta, f: ix.f, mx: mx, flat: flat}).finish(), nil
}

// addGains returns the node table base with gains added: a key of both gets
// the two Meta-sorted rows merged coordinate by coordinate, counts summed; a
// key of one gets its row. The rows between two gained keys are copied as
// one block.
func addGains(base, gains *csr[graph.NodeID]) (csr[graph.NodeID], error) {
	out := csr[graph.NodeID]{
		keys: make([]graph.NodeID, 0, len(base.keys)+len(gains.keys)),
		off:  make([]int32, 1, len(base.keys)+len(gains.keys)+1),
		ent:  make([]Entry, 0, len(base.ent)+len(gains.ent)),
	}
	// keep copies the rows r, lo <= r < hi, of base.
	keep := func(lo, hi int) {
		if lo == hi {
			return
		}
		out.keys = append(out.keys, base.keys[lo:hi]...)
		shift := int32(len(out.ent)) - base.off[lo]
		for _, o := range base.off[lo+1 : hi+1] {
			out.off = append(out.off, o+shift)
		}
		out.ent = append(out.ent, base.ent[base.off[lo]:base.off[hi]]...)
	}
	r := 0 // the first row of base not yet taken
	for i, k := range gains.keys {
		at, found := slices.BinarySearch(base.keys[r:], k)
		keep(r, r+at)
		r += at
		var was []Entry
		if found {
			was = base.ent[base.off[r]:base.off[r+1]]
			r++
		}
		gain := gains.ent[gains.off[i]:gains.off[i+1]]
		for len(was) > 0 || len(gain) > 0 {
			switch {
			case len(gain) == 0 || len(was) > 0 && was[0].Meta < gain[0].Meta:
				out.ent = append(out.ent, was[0])
				was = was[1:]
			case len(was) == 0 || gain[0].Meta < was[0].Meta:
				out.ent = append(out.ent, gain[0])
				gain = gain[1:]
			default:
				c, err := addCount(was[0].Count, gain[0].Count, gain[0].Meta, k)
				if err != nil {
					return csr[graph.NodeID]{}, err
				}
				out.ent = append(out.ent, Entry{gain[0].Meta, c})
				was, gain = was[1:], gain[1:]
			}
		}
		out.keys = append(out.keys, k)
		out.off = append(out.off, int32(len(out.ent)))
	}
	keep(r, len(base.keys))
	return out, nil
}

// addCount returns the stored count c of metagraph meta at key k plus the
// gain g, refusing a sum that does not fit the uint32 an Entry stores.
func addCount[K any](c, g uint32, meta int32, k K) (uint32, error) {
	if s := uint64(c) + uint64(g); s <= math.MaxUint32 {
		return uint32(s), nil
	}
	return 0, fmt.Errorf("index: metagraph %d, key %v: %d instances and %d more overflow the uint32 count", meta, k, c, g)
}

// RematchDelta returns what one metagraph's part index gains from the
// delta behind g, the graph a graph.Apply returned: per key, the number of
// new instances counted exactly as Builder.AddMetagraph counts all of them.
// The part's WithPatch adds the gains to its counts, giving the rows a
// from-scratch match of g would produce.
//
// The two trailing parameters are unused: the enumeration is pinned at
// g.DeltaEdges and needs neither a matcher for a subgraph nor the touched
// nodes. They stay until benchmark/, which calls this signature and may
// not change in the same PR, is ported.
func RematchDelta(g *graph.Graph, m *metagraph.Metagraph, _ func(*graph.Graph) match.Matcher, _ []graph.NodeID) *Patch {
	matcher := match.NewSymISO(g)
	c := counters.Get().(*counter)
	defer counters.Put(c)
	mx, mxy := c.count(m, 0, func(add match.SetVisitor) { match.GainedInstanceSets(matcher, m, add) })
	return &Patch{numMeta: 1, mx: mx, mxy: mxy, enumerated: matcher.Visited()}
}

// counters holds the scratch RematchDelta counts with. An update
// re-matches every held metagraph, and a counter's node counts are dense
// by node id: a fresh one per call would allocate in proportion to the
// graph, not to the update.
var counters = sync.Pool{New: func() any { return new(counter) }}
