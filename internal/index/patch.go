// Incremental index maintenance. When the object graph gains nodes or
// edges, only keys near the mutation can change: every node of a metagraph
// instance lies within Diameter(M) hops of every other (each metagraph edge
// maps onto a graph edge), so an instance using a new edge keeps all of its
// nodes within Diameter(M) hops of that edge's endpoints. RematchDelta
// exploits this: it re-runs the matcher on the induced neighborhood within
// 2·Diameter(M) hops of the touched nodes — large enough to contain every
// instance that CONTAINS an affected key, not just the new instances — and
// emits the recomputed rows as a Patch. WithPatch overlays those rows over
// the flat CSR without rebuilding it; Compact folds the overlay into fresh
// arenas identical to a from-scratch build of the final graph.
package index

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metagraph"
)

// Patch is a set of full replacement rows for one index: every key listed
// shadows its base row entirely. Rows are canonical (keys ascending,
// entries ascending by Meta) and never empty.
type Patch struct {
	numMeta int
	mx      csr[graph.NodeID]
	mxy     csr[PairKey]
}

// NewPatch freezes replacement rows into a Patch for an index spanning
// numMeta metagraphs. Empty rows are dropped (an additive delta can never
// empty a row).
func NewPatch(numMeta int, mx map[graph.NodeID][]Entry, mxy map[PairKey][]Entry) *Patch {
	dropEmpty(mx)
	dropEmpty(mxy)
	return &Patch{numMeta: numMeta, mx: csrFromRows(mx), mxy: csrFromRows(mxy)}
}

// dropEmpty removes keys with empty rows.
func dropEmpty[K comparable](rows map[K][]Entry) {
	for k, row := range rows {
		if len(row) == 0 {
			delete(rows, k)
		}
	}
}

// NumMeta returns the metagraph span the patch applies to.
func (p *Patch) NumMeta() int { return p.numMeta }

// Empty reports whether the patch replaces no rows.
func (p *Patch) Empty() bool { return len(p.mx.keys) == 0 && len(p.mxy.keys) == 0 }

// NodeKeys returns the node keys the patch replaces, ascending. The slice
// is shared; do not modify.
func (p *Patch) NodeKeys() []graph.NodeID { return p.mx.keys }

// PairKeys returns the pair keys the patch replaces, ascending. The slice
// is shared; do not modify.
func (p *Patch) PairKeys() []PairKey { return p.mxy.keys }

// Transform returns a copy of the patch with f applied to every count,
// mirroring Index.Transform for indices built with a count transform.
func (p *Patch) Transform(f func(float64) float64) *Patch {
	return &Patch{
		numMeta: p.numMeta,
		mx:      csr[graph.NodeID]{keys: p.mx.keys, off: p.mx.off, ent: transformArena(p.mx.ent, f)},
		mxy:     csr[PairKey]{keys: p.mxy.keys, off: p.mxy.off, ent: transformArena(p.mxy.ent, f)},
	}
}

// WithPatch returns a new index whose overlay replaces the patched rows;
// the receiver is unchanged and all base arenas are shared. Patching an
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
	out := &Index{
		numMeta: ix.numMeta,
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
		mx:      shadowMerge(ix.mx, ix.ovlMx),
		mxy:     shadowMerge(ix.mxy, ix.ovlMxy),
		adj:     &lazyAdjacency{},
	}
}

// shadowMerge merges two row tables into one fresh table; rows of over
// replace rows of base on key collisions.
func shadowMerge[K cmp.Ordered](base, over csr[K]) csr[K] {
	if len(over.keys) == 0 {
		return base
	}
	if len(base.keys) == 0 {
		return over
	}
	keys := make([]K, 0, len(base.keys)+len(over.keys))
	ent := make([]Entry, 0, len(base.ent)+len(over.ent))
	off := make([]int32, 1, len(base.keys)+len(over.keys)+1)
	i, j := 0, 0
	appendRow := func(c *csr[K], k int) {
		ent = append(ent, c.ent[c.off[k]:c.off[k+1]]...)
		off = append(off, int32(len(ent)))
	}
	for i < len(base.keys) && j < len(over.keys) {
		switch {
		case base.keys[i] < over.keys[j]:
			keys = append(keys, base.keys[i])
			appendRow(&base, i)
			i++
		case base.keys[i] > over.keys[j]:
			keys = append(keys, over.keys[j])
			appendRow(&over, j)
			j++
		default:
			keys = append(keys, over.keys[j])
			appendRow(&over, j)
			i++
			j++
		}
	}
	for ; i < len(base.keys); i++ {
		keys = append(keys, base.keys[i])
		appendRow(&base, i)
	}
	for ; j < len(over.keys); j++ {
		keys = append(keys, over.keys[j])
		appendRow(&over, j)
	}
	return csr[K]{keys: keys, off: off, ent: ent}
}

// Rematch recomputes the rows of one metagraph's single-metagraph part
// index affected by a graph mutation. sub is the induced update
// neighborhood (every instance containing an affected key lies entirely
// inside it), matcher matches on sub, toFull maps sub ids back to full
// graph ids, and affected holds the full-graph keys whose rows may have
// changed. Counting is restricted to affected keys: a node row is
// recomputed when the node is affected, a pair row when both endpoints
// are. The returned patch rows equal the rows a from-scratch match of the
// full post-delta graph would produce for those keys.
func Rematch(m *metagraph.Metagraph, matcher match.Matcher, toFull []graph.NodeID, affected map[graph.NodeID]bool) *Patch {
	symPairs := m.SymmetricPairs()
	if len(symPairs) == 0 || len(affected) == 0 {
		return NewPatch(1, nil, nil)
	}
	posSet := make([]int, 0, m.N())
	seen := make(map[int]bool, m.N())
	for _, p := range symPairs {
		if !seen[p.U] {
			seen[p.U] = true
			posSet = append(posSet, p.U)
		}
		if !seen[p.V] {
			seen[p.V] = true
			posSet = append(posSet, p.V)
		}
	}
	nodeCnt := make(map[graph.NodeID]float64)
	pairCnt := make(map[PairKey]float64)
	match.Instances(matcher, m, func(a []graph.NodeID) bool {
		for _, p := range symPairs {
			x, y := toFull[a[p.U]], toFull[a[p.V]]
			if affected[x] && affected[y] {
				pairCnt[MakePairKey(x, y)]++
			}
		}
		for _, p := range posSet {
			if x := toFull[a[p]]; affected[x] {
				nodeCnt[x]++
			}
		}
		return true
	})
	mx := make(map[graph.NodeID][]Entry, len(nodeCnt))
	for k, c := range nodeCnt {
		mx[k] = []Entry{{0, c}}
	}
	mxy := make(map[PairKey][]Entry, len(pairCnt))
	for k, c := range pairCnt {
		mxy[k] = []Entry{{0, c}}
	}
	return NewPatch(1, mx, mxy)
}

// RematchDelta computes the patch of one metagraph's part index for a
// graph mutation: touched are the nodes whose adjacency changed (plus any
// new nodes with edges), g is the POST-delta graph. Affected keys are the
// nodes within Diameter(m) hops of a touched node; the matcher re-runs on
// the induced neighborhood within twice that radius, which contains every
// instance touching an affected key. newMatcher builds a matcher for the
// neighborhood subgraph.
func RematchDelta(g *graph.Graph, m *metagraph.Metagraph, newMatcher func(*graph.Graph) match.Matcher, touched []graph.NodeID) *Patch {
	if len(touched) == 0 {
		return NewPatch(1, nil, nil)
	}
	diam := m.Diameter()
	dist := g.HopDistances(touched, 2*diam)
	affected := make(map[graph.NodeID]bool, len(dist))
	region := make([]graph.NodeID, 0, len(dist))
	for v, d := range dist {
		region = append(region, v)
		if int(d) <= diam {
			affected[v] = true
		}
	}
	slices.Sort(region)
	sub, toFull := graph.Induced(g, region)
	return Rematch(m, newMatcher(sub), toFull, affected)
}
