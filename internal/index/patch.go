// Incremental index maintenance. Deltas are additive, so a graph mutation
// never destroys an instance and creates exactly the instances that map a
// metagraph edge onto an added graph edge (Def. 2). RematchDelta enumerates
// those — seeded at the added edges, see match.Delta — and counts, per key,
// the instances GAINED; a row after the delta is the row before it plus its
// gains. WithPatch overlays the resulting rows over the flat CSR without
// rebuilding it; Compact folds the overlay into fresh arenas identical to a
// from-scratch build of the final graph.
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

// Patch is a set of rows for one index, in one of two forms. Replacement
// rows (Over) shadow the base row of every key listed. Gains
// (RematchDelta) hold raw instance counts to ADD to the rows of the index
// they land on; WithPatch resolves them, so callers apply either form the
// same way. Rows are canonical (keys ascending, entries ascending by Meta)
// and never empty.
type Patch struct {
	numMeta int
	mx      csr[graph.NodeID]
	mxy     csr[PairKey]
	gains   bool
	// enumerated is the work the re-match behind a gains patch did.
	enumerated int64
}

// Empty reports whether the patch replaces no rows.
func (p *Patch) Empty() bool { return len(p.mx.keys) == 0 && len(p.mxy.keys) == 0 }

// NodeKeys returns the node keys the patch replaces, ascending. The slice
// is shared; do not modify.
func (p *Patch) NodeKeys() []graph.NodeID { return p.mx.keys }

// Enumerated returns the number of assignments the enumeration behind the
// patch visited (match.Delta.Visited); 0 for a hand-built patch.
func (p *Patch) Enumerated() int64 { return p.enumerated }

// MergeGains lifts the gains of several re-matches onto one index spanning
// numMeta metagraphs: patch i's metagraph j becomes metagraph slots[i]+j,
// and a key's row is the coordinates that gained, wherever they came from.
// One WithPatch of the result then lands every gain on the merged rows — a
// row changes only in the coordinates that gained. The work counts add up.
func MergeGains(numMeta int, slots []int, patches []*Patch) *Patch {
	out := &Patch{numMeta: numMeta, gains: true}
	mx := make([]source[graph.NodeID], len(patches))
	mxy := make([]source[PairKey], len(patches))
	for i, p := range patches {
		mx[i] = source[graph.NodeID]{&p.mx, int32(slots[i])}
		mxy[i] = source[PairKey]{&p.mxy, int32(slots[i])}
		out.enumerated += p.enumerated
	}
	out.mx, out.mxy = mergeCSR(mx), mergeCSR(mxy)
	return out
}

// Over resolves gains into replacement rows over ix, the index they are
// about to land on: every row becomes ix's current row (read through any
// overlay) plus the gained counts, added as integers. The index stores raw
// counts whatever its transform, so the sum is the count a from-scratch
// match of the grown graph gives, and the transform reads it as it reads
// every other. A sum beyond 2^32-1 is refused with an error naming the
// metagraph and key, and nothing is resolved. A patch that already holds
// replacement rows is returned as is.
func (p *Patch) Over(ix *Index) (*Patch, error) {
	if !p.gains {
		return p, nil
	}
	mx, err := addGains(p.mx, ix.nodeRow)
	if err != nil {
		return nil, err
	}
	mxy, err := addGains(p.mxy, func(k PairKey) []Entry { return ix.pairRow(k.Nodes()) })
	if err != nil {
		return nil, err
	}
	return &Patch{numMeta: p.numMeta, mx: mx, mxy: mxy, enumerated: p.enumerated}, nil
}

// addGains returns the table of old(k) + gains' row of k for every key of
// gains, merging the two Meta-sorted rows coordinate by coordinate.
func addGains[K cmp.Ordered](gains csr[K], old func(K) []Entry) (csr[K], error) {
	if len(gains.keys) == 0 {
		return csr[K]{}, nil
	}
	out := csr[K]{
		keys: gains.keys,
		off:  make([]int32, 1, len(gains.off)),
		ent:  make([]Entry, 0, len(gains.ent)),
	}
	for i, k := range gains.keys {
		was, gain := old(k), gains.ent[gains.off[i]:gains.off[i+1]]
		for len(was) > 0 || len(gain) > 0 {
			switch {
			case len(gain) == 0 || len(was) > 0 && was[0].Meta < gain[0].Meta:
				out.ent = append(out.ent, was[0])
				was = was[1:]
			case len(was) == 0 || gain[0].Meta < was[0].Meta:
				out.ent = append(out.ent, gain[0])
				gain = gain[1:]
			default:
				c := uint64(was[0].Count) + uint64(gain[0].Count)
				if c > math.MaxUint32 {
					return csr[K]{}, fmt.Errorf("index: metagraph %d, key %v: %d instances and %d more overflow the uint32 count",
						gain[0].Meta, k, was[0].Count, gain[0].Count)
				}
				out.ent = append(out.ent, Entry{gain[0].Meta, uint32(c)})
				was, gain = was[1:], gain[1:]
			}
		}
		out.off = append(out.off, int32(len(out.ent)))
	}
	return out, nil
}

// WithPatch returns a new index whose overlay replaces the patched rows;
// the receiver is unchanged, all base arenas are shared and the transform
// carries over. Gains are first resolved against the receiver (see Over);
// a gain Over refuses panics here, so a caller that cannot rule overflow
// out resolves the patch with Over first. Patching an
// already-patched index merges the overlays (the newer patch wins on
// overlapping keys). Reads through the result see the replacement rows
// immediately; call Compact to fold the overlay into flat storage.
//
// When the receiver's adjacency is built the result's is too: it shares
// the receiver's flat rows and re-derives only the rows of the overlay's
// endpoints, so an update never costs its first reader an O(pairs) build.
func (ix *Index) WithPatch(p *Patch) *Index {
	if p.numMeta != ix.numMeta {
		panic(fmt.Sprintf("index: patch spans %d metagraphs, index %d", p.numMeta, ix.numMeta))
	}
	if p.Empty() {
		return ix
	}
	p, err := p.Over(ix)
	if err != nil {
		panic(err)
	}
	out := &Index{
		numMeta: ix.numMeta,
		f:       ix.f,
		mx:      ix.mx,
		mxy:     ix.mxy,
		ovlMx:   shadowMerge(ix.ovlMx, p.mx),
		ovlMxy:  shadowMerge(ix.ovlMxy, p.mxy),
		adj:     &lazyAdjacency{},
	}
	if a := ix.adj.p.Load(); a != nil {
		out.adj.p.Store(overlayAdjacency(a.flat, out))
	}
	return out
}

// Pending reports whether the index carries an uncompacted patch overlay.
func (ix *Index) Pending() bool { return len(ix.ovlMx.keys) != 0 || len(ix.ovlMxy.keys) != 0 }

// Compact folds the patch overlay into fresh flat CSR arenas, returning
// the receiver unchanged when there is nothing pending. The result is
// byte-identical (under Write) to an index built from scratch on the
// post-delta graph. Every row moves, so the result's adjacency starts
// unbuilt: whoever hands it to readers calls BuildAdjacency first.
func (ix *Index) Compact() *Index {
	if !ix.Pending() {
		return ix
	}
	return &Index{
		numMeta: ix.numMeta,
		f:       ix.f,
		mx:      shadowMerge(ix.mx, ix.ovlMx),
		mxy:     shadowMerge(ix.mxy, ix.ovlMxy),
		adj:     &lazyAdjacency{},
	}
}

// shadowMerge merges two row tables into one fresh table; rows of over
// replace rows of base on key collisions. An overlay is a few rows against
// a table of many, so the base rows between two overlay keys move as one
// block: three copies and an offset shift, not a row at a time.
func shadowMerge[K cmp.Ordered](base, over csr[K]) csr[K] {
	if len(over.keys) == 0 {
		return base
	}
	if len(base.keys) == 0 {
		return over
	}
	out := csr[K]{
		keys: make([]K, 0, len(base.keys)+len(over.keys)),
		off:  make([]int32, 1, len(base.keys)+len(over.keys)+1),
		ent:  make([]Entry, 0, len(base.ent)+len(over.ent)),
	}
	// copyRows appends rows [i, j) of c.
	copyRows := func(c *csr[K], i, j int) {
		shift := int32(len(out.ent)) - c.off[i]
		out.keys = append(out.keys, c.keys[i:j]...)
		out.ent = append(out.ent, c.ent[c.off[i]:c.off[j]]...)
		for _, end := range c.off[i+1 : j+1] {
			out.off = append(out.off, end+shift)
		}
	}
	i := 0
	for j, k := range over.keys {
		n, shadowed := slices.BinarySearch(base.keys[i:], k)
		copyRows(&base, i, i+n)
		copyRows(&over, j, j+1)
		i += n
		if shadowed {
			i++
		}
	}
	copyRows(&base, i, len(base.keys))
	return out
}

// RematchDelta returns what one metagraph's part index gains from the
// delta behind g, the graph a graph.Apply returned: per key, the number of
// new instances counted exactly as Builder.AddMetagraph counts all of them.
// The result is a gains patch (see Patch); the part's WithPatch turns it
// into the rows a from-scratch match of g would produce.
//
// The two trailing parameters are unused: the enumeration is seeded from
// g.DeltaEdges and needs neither a matcher for a subgraph nor the touched
// nodes. They stay until benchmark/, which calls this signature and may
// not change in the same PR, is ported.
func RematchDelta(g *graph.Graph, m *metagraph.Metagraph, _ func(*graph.Graph) match.Matcher, _ []graph.NodeID) *Patch {
	d := match.NewDelta(g)
	gained := matchOne(m, d)
	return &Patch{numMeta: 1, mx: gained.mx, mxy: gained.mxy, gains: true, enumerated: d.Visited()}
}
