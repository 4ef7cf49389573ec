package experiments

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metagraph"
)

// BoostISO is the vertex-relationship baseline (after Ren & Wang,
// PVLDB'15): graph vertices with identical type and identical neighbor sets
// are *syntactically equivalent* — any assignment mapping a pattern node to
// one of them remains valid under substitution by another. The engine
// verifies adjacency once per equivalence class and then emits every unused
// class member, which pays off on attribute graphs where many leaf objects
// duplicate each other. Like the other baselines, it does not exploit
// pattern-side symmetry.
type BoostISO struct {
	g     *graph.Graph
	stats *match.GraphStats

	// class[v] = equivalence class id of vertex v; members[c] lists the
	// vertices of class c in ascending order.
	class   []int32
	members [][]graph.NodeID
}

// NewBoostISO builds a BoostISO engine for g, precomputing vertex
// equivalence classes (one scan, hashing sorted adjacency).
func NewBoostISO(g *graph.Graph) *BoostISO {
	b := &BoostISO{g: g, stats: match.NewGraphStats(g)}
	n := g.NumNodes()
	b.class = make([]int32, n)
	byKey := make(map[string]int32, n)
	for v := 0; v < n; v++ {
		var sb strings.Builder
		sb.WriteString(strconv.Itoa(int(g.Type(graph.NodeID(v)))))
		sb.WriteByte('|')
		for _, w := range g.Neighbors(graph.NodeID(v)) {
			sb.WriteString(strconv.Itoa(int(w)))
			sb.WriteByte(',')
		}
		key := sb.String()
		id, ok := byKey[key]
		if !ok {
			id = int32(len(b.members))
			byKey[key] = id
			b.members = append(b.members, nil)
		}
		b.class[v] = id
		b.members[id] = append(b.members[id], graph.NodeID(v))
	}
	for _, ms := range b.members {
		sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	}
	return b
}

// Match implements match.Matcher.
func (b *BoostISO) Match(m *metagraph.Metagraph, visit match.Visitor) {
	bt := newBacktracker(b.g, m, match.EstimateOrder(b.stats, m), visit)
	// Override the recursion: group candidates by equivalence class, verify
	// the class once, then emit each unused member.
	var rec func(k int)
	// One class-dedup map per depth: the recursion below must not clobber
	// an outer depth's tracking.
	seenByDepth := make([]map[int32]bool, len(bt.order))
	for i := range seenByDepth {
		seenByDepth[i] = make(map[int32]bool, 16)
	}
	rec = func(k int) {
		if bt.stopped {
			return
		}
		if k == len(bt.order) {
			if !bt.visit(bt.assign) {
				bt.stopped = true
			}
			return
		}
		u := bt.order[k]
		pivot := bt.pivotFor(u)
		cands := bt.defaultCandidates(u, pivot)
		seenClass := seenByDepth[k]
		for key := range seenClass {
			delete(seenClass, key)
		}
		for _, v := range cands {
			c := b.class[v]
			if seenClass[c] {
				continue
			}
			seenClass[c] = true
			// Verify adjacency once using v; all class members share v's
			// neighbor set, so the result holds for each of them. Members
			// are pairwise non-adjacent (no self loops), so edges among
			// pattern nodes mapped into one class fail uniformly too.
			if !bt.consistent(u, v) {
				continue
			}
			for _, w := range b.members[c] {
				if bt.used[w] {
					continue
				}
				// Class members may not all be candidates when the pivot's
				// list was a strict subset (it never is: equivalent
				// vertices share all neighbors, so they co-occur in every
				// adjacency list). Still, guard the type invariant cheaply.
				bt.assign[u] = w
				bt.used[w] = true
				rec(k + 1)
				bt.used[w] = false
				bt.assign[u] = graph.InvalidNode
				if bt.stopped {
					return
				}
			}
		}
	}
	rec(0)
}
