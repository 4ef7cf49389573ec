// Package mining enumerates the metagraph set M of a typed object graph
// (subproblem 1 of the paper's offline phase, Sect. II-B). The paper uses
// GRAMI (Elseidy et al., PVLDB'14) off the shelf; this package is a
// from-scratch substitute that keeps GRAMI's defining traits: single-graph
// frequent pattern mining under the MNI (minimum node image) support
// measure, which is the canonical anti-monotone support for a single large
// graph, with pattern growth and canonical-form deduplication.
//
// Patterns grow from single-edge seeds by attaching a new typed node to an
// existing node or closing an edge between two existing nodes; both moves
// preserve connectivity, and every connected pattern is reachable this way.
// MNI anti-monotonicity prunes infrequent branches exactly as in GRAMI.
package mining

import (
	"cmp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metagraph"
)

// Options configures a mining run; an engine's options carry it unlinked.
type Options = metagraph.MiningOptions

// DefaultOptions mirrors the paper's setup: metagraphs of at most 5 nodes.
func DefaultOptions() Options {
	return Options{MaxNodes: 5, MinSupport: 2}
}

// Pattern is one mined metagraph with its MNI support (a lower bound equal
// to at least MinSupport; computation stops early once the threshold is
// established, as only the threshold matters for mining).
type Pattern struct {
	M       *metagraph.Metagraph
	Support int
}

// Mine enumerates the frequent metagraphs of g under opts, in canonical-key
// order (deterministic across runs). Support evaluation fans out over
// runtime.GOMAXPROCS(0) workers; the result does not depend on their number.
func Mine(g *graph.Graph, opts Options) []Pattern {
	return mine(g, opts, runtime.GOMAXPROCS(0))
}

// candidate is a queued pattern with the canonical key it was deduplicated
// under, carried so the final sort never recomputes it.
type candidate struct {
	m   *metagraph.Metagraph
	key string
	sup int
}

// mine is Mine on a fixed number of workers. The search is breadth-first:
// the supports of one BFS level are computed in parallel, then the level is
// consumed serially in queue order (prune, collect, MaxPatterns stop,
// extend with dedupe), which is exactly the order a single FIFO queue
// would visit it in. The frequent list, its supports and the MaxPatterns
// cut are therefore the same at any worker count.
func mine(g *graph.Graph, opts Options, workers int) []Pattern {
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = 5
	}
	if opts.MinSupport <= 0 {
		opts.MinSupport = 1
	}
	workers = max(workers, 1)
	supporters := make([]*supporter, workers)
	for w := range supporters {
		supporters[w] = newSupporter(g, match.NewSymISO(g))
	}
	stats := match.NewGraphStats(g)

	seen := make(map[string]bool)
	var frequent []candidate
	var level []candidate
	push := func(m *metagraph.Metagraph) {
		if key := m.Canonical(); !seen[key] {
			seen[key] = true
			level = append(level, candidate{m: m, key: key})
		}
	}

	// Seeds: one 2-node pattern per type pair with at least one edge.
	nt := g.NumTypes()
	for t1 := 0; t1 < nt; t1++ {
		for t2 := t1; t2 < nt; t2++ {
			if stats.EdgeCount(graph.TypeID(t1), graph.TypeID(t2)) == 0 {
				continue
			}
			push(metagraph.MustNew(
				[]graph.TypeID{graph.TypeID(t1), graph.TypeID(t2)},
				[]metagraph.Edge{{U: 0, V: 1}}))
		}
	}

levels:
	for len(level) > 0 {
		cur := level
		level = nil
		sups := levelSupports(supporters, cur, opts.MinSupport)
		for i, c := range cur {
			m := c.m
			if sups[i] < opts.MinSupport {
				continue // anti-monotone prune: no extension can be frequent
			}
			c.sup = sups[i]
			frequent = append(frequent, c)
			if opts.MaxPatterns > 0 && len(frequent) >= opts.MaxPatterns {
				break levels
			}

			// Extensions: add a typed node, or close an edge.
			if m.N() < opts.MaxNodes {
				for u := 0; u < m.N(); u++ {
					for t := 0; t < nt; t++ {
						if stats.EdgeCount(m.Type(u), graph.TypeID(t)) == 0 {
							continue
						}
						if ext, err := m.ExtendNode(u, graph.TypeID(t)); err == nil {
							push(ext)
						}
					}
				}
			}
			for u := 0; u < m.N(); u++ {
				for v := u + 1; v < m.N(); v++ {
					if m.HasEdge(u, v) || stats.EdgeCount(m.Type(u), m.Type(v)) == 0 {
						continue
					}
					if ext, err := m.ExtendEdge(u, v); err == nil {
						push(ext)
					}
				}
			}
		}
	}

	// Smaller patterns first, then by key; keys are unique, so the order
	// is total.
	slices.SortFunc(frequent, func(a, b candidate) int {
		if c := cmp.Compare(len(a.key), len(b.key)); c != 0 {
			return c
		}
		return strings.Compare(a.key, b.key)
	})
	out := make([]Pattern, len(frequent))
	for i, c := range frequent {
		out[i] = Pattern{M: c.m, Support: c.sup}
	}
	return out
}

// levelSupports computes the MNI support of every pattern of one BFS level,
// capped at enough, with one supporter per worker. Workers claim patterns
// through a shared counter and write only their own slots of the result.
func levelSupports(supporters []*supporter, level []candidate, enough int) []int {
	sups := make([]int, len(level))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, s := range supporters[:min(len(supporters), len(level))] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(level); i = int(next.Add(1)) - 1 {
				sups[i] = s.mni(level[i].m, enough)
			}
		}()
	}
	wg.Wait()
	return sups
}

// supporter computes MNI supports with one matcher and scratch that is
// reused across patterns: an image counter per orbit of the pattern's
// automorphism group and a seen bitmap indexed by (orbit, graph node). It
// is not safe for concurrent use; Mine gives each worker its own.
type supporter struct {
	matcher  match.Matcher
	numNodes int
	seen     []uint64
	count    []int
	short    int // orbits still below enough images
}

func newSupporter(g *graph.Graph, matcher match.Matcher) *supporter {
	return &supporter{matcher: matcher, numNodes: g.NumNodes()}
}

// mni computes the MNI support of m with the supporter's matcher: the
// minimum, over pattern nodes u, of the number of distinct graph nodes
// that appear as the image of u across all assignments. It visits one
// witness a per instance (match.InstanceSets), not every assignment. The
// assignments of a's instance are {a∘σ : σ ∈ Aut(m)}, so the images of u
// across them are {a[v] : v ∈ orbit(u)}: every node of an orbit has the
// same image set, and the MNI is the minimum over orbits of the union of
// a[v] over the orbit's nodes v and over the witnesses. A set's positions
// P are interchangeable members of one group, so they lie in one orbit,
// and each of its candidates F is the image of P in some of its instances.
// An orbit stops collecting images once it has enough of them, and the
// enumeration stops once no orbit is short, so the returned value is
// min(MNI, enough) — exact whenever it is below the threshold.
func (s *supporter) mni(m *metagraph.Metagraph, enough int) int {
	var orbit [metagraph.MaxNodes]int
	n := 0 // orbits numbered so far
	for u := range m.N() {
		orbit[u] = -1
	}
	auts := m.Automorphisms()
	for u := range m.N() {
		if orbit[u] < 0 {
			for _, sigma := range auts {
				orbit[sigma[u]] = n
			}
			n++
		}
	}
	words := (n*s.numNodes + 63) / 64
	if cap(s.seen) < words {
		s.seen = make([]uint64, words)
	}
	s.seen = s.seen[:words]
	clear(s.seen)
	if cap(s.count) < n {
		s.count = make([]int, n)
	}
	s.count = s.count[:n]
	clear(s.count)
	s.short = n
	match.InstanceSets(s.matcher, m, func(set match.Set) bool {
		for u, v := range set.A {
			if v != graph.InvalidNode { // positions of P hold InvalidNode
				s.see(orbit[u], v, enough)
			}
		}
		if len(set.P) > 0 {
			o := orbit[set.P[0]]
			for _, v := range set.F {
				s.see(o, v, enough)
			}
		}
		return s.short > 0
	})
	return slices.Min(s.count)
}

// see records v as an image of orbit o, unless o already has enough.
func (s *supporter) see(o int, v graph.NodeID, enough int) {
	if s.count[o] >= enough {
		return
	}
	bit := o*s.numNodes + int(v)
	if w, b := bit>>6, uint64(1)<<(bit&63); s.seen[w]&b == 0 {
		s.seen[w] |= b
		if s.count[o]++; s.count[o] == enough {
			s.short--
		}
	}
}

// ProximityFilter selects the mined metagraphs usable for semantic
// proximity between nodes of the anchor type (Sect. V-A): symmetric
// (Def. 1), at least two anchor-typed nodes forming at least one symmetric
// anchor pair, and at least one node of another type.
func ProximityFilter(patterns []Pattern, anchor graph.TypeID) []Pattern {
	var out []Pattern
	for _, p := range patterns {
		m := p.M
		if m.CountType(anchor) < 2 || m.CountType(anchor) == m.N() {
			continue
		}
		if len(m.AnchorPairs(anchor)) == 0 {
			continue
		}
		out = append(out, p)
	}
	return out
}

// Metagraphs extracts just the metagraphs of a pattern list.
func Metagraphs(patterns []Pattern) []*metagraph.Metagraph {
	out := make([]*metagraph.Metagraph, len(patterns))
	for i, p := range patterns {
		out[i] = p.M
	}
	return out
}

// CountPaths returns how many of the patterns are metapaths; the paper
// reports metapaths to be 2–3% of all metagraphs (Sect. III-C).
func CountPaths(patterns []Pattern) int {
	n := 0
	for _, p := range patterns {
		if p.M.IsPath() {
			n++
		}
	}
	return n
}
