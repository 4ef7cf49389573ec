// Incremental index maintenance. Deltas are additive, so a graph mutation
// never destroys an instance and creates exactly the instances that map a
// metagraph edge onto an added graph edge (Def. 2). RematchDelta enumerates
// those — SymISO pinned at each added edge, see match.GainedInstanceSets —
// and counts, per key, the instances GAINED; a row after the delta is the
// row before it plus its gains. WithPatch adds the gains into the run
// headers and postings they change and lays the index out anew, without
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

// Patch is what one update gained: the raw instance counts to ADD to the
// index it lands on (Eq. 1–2 count instances, and a delta only adds them),
// per pair as the runs above each node and per node in flight beside them.
type Patch struct {
	numMeta int
	up      upperRuns
	// enumerated is the work the re-match behind the patch did.
	enumerated int64
}

// Empty reports whether the patch gains nothing.
func (p *Patch) Empty() bool { return len(p.up.mx) == 0 && len(p.up.meta) == 0 }

// NodeKeys returns the nodes whose counts gain, ascending.
func (p *Patch) NodeKeys() []graph.NodeID {
	keys := make([]graph.NodeID, len(p.up.mx))
	for i, c := range p.up.mx {
		keys[i] = c.node
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// Enumerated returns the number of search nodes the enumeration behind
// the patch visited (match.SymISO.Visited); 0 for a hand-built patch.
func (p *Patch) Enumerated() int64 { return p.enumerated }

// MergeGains lifts the gains of several re-matches onto one index spanning
// numMeta metagraphs: patch i's metagraph j becomes metagraph slots[i]+j,
// and a key's row is the coordinates that gained, wherever they came from.
// One WithPatch of the result then adds every gain to the merged index — a
// row changes only in the coordinates that gained. The slots are distinct,
// so each metagraph's runs and counts are one patch's, in node order, and
// are appended as they are. The work counts add up.
func MergeGains(numMeta int, slots []int, patches []*Patch) *Patch {
	out := &Patch{numMeta: numMeta}
	nodes, runs, posts, counts := 0, 0, 0, 0
	for _, p := range patches {
		nodes, runs, posts, counts = nodes+len(p.up.nodes), runs+len(p.up.meta), posts+len(p.up.post), counts+len(p.up.mx)
	}
	out.up.reserve(nodes, runs, posts)
	out.up.mx = make([]nodeCount, 0, counts)
	for i, p := range patches {
		shift := int32(slots[i])
		u := &p.up
		for k, x := range u.nodes {
			for j := u.first[k]; j < u.first[k+1]; j++ {
				out.up.post = append(out.up.post, u.post[u.off[j]:u.off[j+1]]...)
				out.up.end(x, u.meta[j]+shift)
			}
		}
		for _, c := range u.mx {
			out.up.mx = append(out.up.mx, nodeCount{c.node, Entry{c.Meta + shift, c.Count}})
		}
		out.enumerated += p.enumerated
	}
	return out
}

// WithPatch returns a new index holding the receiver's counts plus the
// patch's gains; the receiver is unchanged. It is the one place gains meet
// stored counts, added as integers, so each sum is the count a from-scratch
// match of the grown graph gives. The gains are laid out as runs, headers
// and all, and one pass over the runs merges every gained endpoint's runs
// with its gain runs and copies everyone else's as they are
// (adjRuns.plus). A sum beyond 2^32-1 is refused with an error naming the
// metagraph and key, and so are gains whose node counts do not match their
// runs as layout requires. The result is laid out as a from-scratch build
// of the grown graph lays it out, so it writes the same bytes. The cost is
// one copy of the runs, plus the gained endpoints' runs.
func (ix *Index) WithPatch(p *Patch) (*Index, error) {
	if p.numMeta != ix.numMeta {
		panic(fmt.Sprintf("index: patch spans %d metagraphs, index %d", p.numMeta, ix.numMeta))
	}
	if p.Empty() {
		return ix, nil
	}
	gain, err := p.up.layout(p.numMeta)
	if err != nil {
		return nil, err
	}
	flat, err := ix.flat.plus(gain)
	if err != nil {
		return nil, err
	}
	return &Index{numMeta: ix.numMeta, flat: flat, paths: ix.paths, g: ix.g}, nil
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
// new instances counted exactly as MatchParts counts all of them.
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
	up := c.count(m, 0, func(add match.SetVisitor) { match.GainedInstanceSets(matcher, m, add) })
	return &Patch{numMeta: 1, up: up, enumerated: matcher.Visited()}
}

// counters holds the scratch RematchDelta counts with. An update
// re-matches every held metagraph, and a counter's node counts are dense
// by node id: a fresh one per call would allocate in proportion to the
// graph, not to the update.
var counters = sync.Pool{New: func() any { return new(counter) }}
