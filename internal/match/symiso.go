package match

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/graph"
	"repro/internal/metagraph"
)

// SymISO is the paper's symmetry-based matching algorithm (Sect. IV-C,
// Alg. 2–3). The metagraph is decomposed into symmetric-component groups
// (internal/metagraph.Decompose); matching proceeds one group at a time.
// For a group B = {S, S', ...} of mutually symmetric components, the
// candidate matchings C(S|D) are computed once from the representative S
// and reused for every sibling: the involutive automorphism behind the
// group fixes all already-matched nodes, so a sibling's constraints
// against D coincide with the representative's and are never re-verified.
// Only the cross-edges between the group's own components are checked when
// a tuple of distinct matchings is selected. When the last group to place
// is interchangeable one-node members that conditions keep ascending,
// every choice of them from its candidate list is one instance, and
// InstanceSets reports the list instead of choosing. A SymISO serves one
// goroutine; it builds its GraphStats on the first plan that orders by
// them, which a search pinned at an edge never is.
type SymISO struct {
	g       *graph.Graph
	stats   *GraphStats
	rng     *rand.Rand // non-nil for SymISO-R: random component order
	visited int64
}

// NewSymISO builds a SymISO engine for g with the estimated-instances
// component order of Sect. IV-C.
func NewSymISO(g *graph.Graph) *SymISO {
	return &SymISO{g: g}
}

// NewSymISOR builds SymISO-R, the ablation with a random matching order
// (used in Fig. 11 to show the value of the ordering). The random order
// still prefers connectivity to the matched prefix — a fully arbitrary
// order can degenerate to full type scans, which no implementation would
// ship.
func NewSymISOR(g *graph.Graph, seed int64) *SymISO {
	return &SymISO{g: g, rng: rand.New(rand.NewSource(seed))}
}

// Visited returns the search nodes the enumerations of s have visited so
// far, each node placed alone or member matching picked: their work.
func (s *SymISO) Visited() int64 { return s.visited }

// Match implements Matcher.
func (s *SymISO) Match(m *metagraph.Metagraph, visit Visitor) {
	s.run(m, nil, func(set Set) bool { return visit(set.A) })
}

// run enumerates the assignments of m that satisfy conds, each a
// symmetry-breaking condition a[U] < a[V] (nil: every assignment). A
// condition is checked as soon as both of its nodes are placed, so a
// branch no completion of which could satisfy it is never entered; the
// surviving assignments are visited in Match's order, those of a last
// group planSteps finds interchangeable as one Set per candidate list.
func (s *SymISO) run(m *metagraph.Metagraph, conds []metagraph.Edge, visit SetVisitor) {
	st := s.plan(m, metagraph.Decompose(m), conds)
	st.visit = visit
	st.matchGroup(0)
	s.visited += st.visited
}

// Rooted is the rooted form of InstanceSets over SymISO for one metagraph
// and one position r of it (or two): Sets(v) reports the instances that
// hold node v on r, each once. Root plans the search once, and every Sets
// call reuses the plan and its scratch, so a Rooted serves one goroutine.
type Rooted struct {
	st *symState
}

// Root prepares the rooted enumerations of m at position r. The search
// places r first, pinned to the node Sets is given, and decomposes the rest
// under the involutions that fix r (metagraph.DecomposeFixing), so that the
// groups the full match reports as sets stay sets wherever r is not among
// them. It checks the conditions of r's stabilizer
// (metagraph.StabilizerConditions): of the assignments of one instance that
// place v on r, exactly one satisfies them.
func (s *SymISO) Root(m *metagraph.Metagraph, r int) *Rooted {
	return &Rooted{st: s.plan(m, metagraph.DecomposeFixing(m, r), m.StabilizerConditions(r), r)}
}

// Sets reports, through visit, every instance of the metagraph that holds
// v on the root position, once, grouped into sets as InstanceSets groups
// them; the root is never one of a set's positions. A node the graph does
// not hold, or not of the root's type, has none.
func (p *Rooted) Sets(v graph.NodeID, visit SetVisitor) { p.sets(visit, v) }

// sets reports, through visit, every instance that holds pinned[k] on the
// plan's k-th pin, once, grouped into sets as Sets groups them, and
// whether visit asked for more. A search pinned at two positions orders
// its groups from the pinned nodes' rows first (pinnedOrder).
func (p *Rooted) sets(visit SetVisitor, pinned ...graph.NodeID) bool {
	st, g := p.st, p.st.s.g
	for k, v := range pinned {
		if v < 0 || int(v) >= g.NumNodes() || g.Type(v) != st.m.Type(st.pins[k]) {
			return true
		}
		st.pinned[k] = v
	}
	if len(pinned) == 2 {
		if order := st.pinnedOrder(); !slices.Equal(order, st.order) {
			st.order = order
			st.planSteps()
		}
	}
	st.visit, st.stopped, st.visited = visit, false, 0
	st.matchGroup(0)
	st.s.visited += st.visited
	return !st.stopped
}

// GainedInstanceSets reports, through visit, every instance of m through an
// edge the delta behind s's graph added (g.DeltaEdges), once, grouped into
// sets as InstanceSets groups them. Per added edge {u, v} and per orbit of
// oriented metagraph edges, one search pins u and v at a representative
// (i, j), under the conditions of the pointwise stabilizer of i and j. An
// instance through several added edges is reported at the first: a set
// whose placed part uses an earlier one is dropped, and its free nodes are
// kept only where they reach none. The search reads the rows around the
// added edges and builds no GraphStats and no scratch sized to the graph
// (DESIGN.md "Incremental updates").
func GainedInstanceSets(s *SymISO, m *metagraph.Metagraph, visit SetVisitor) {
	edges := s.g.DeltaEdges()
	var rank map[graph.Edge]int // nil for one added edge: nothing comes first
	if len(edges) > 1 {
		rank = make(map[graph.Edge]int, len(edges))
		for i, e := range edges {
			rank[e] = i
		}
	}
	var at int // the rank of the added edge searched
	earlier := func(x, y graph.NodeID) bool {
		i, ok := rank[graph.Edge{U: min(x, y), V: max(x, y)}]
		return ok && i < at
	}
	var keep []graph.NodeID
	first := func(set Set) bool {
		for _, e := range m.Edges() {
			if earlier(set.A[e.U], set.A[e.V]) {
				return true
			}
		}
		if rank != nil && len(set.P) > 0 {
			keep = keep[:0]
			for _, f := range set.F {
				if !slices.ContainsFunc(m.Neighbors(set.P[0]), func(q int) bool { return earlier(f, set.A[q]) }) {
					keep = append(keep, f)
				}
			}
			if len(keep) < len(set.P) {
				return true
			}
			set.F = keep
		}
		return visit(set)
	}
	// One oriented edge (i, j) per orbit of Aut(m) on the edges read both
	// ways, its decomposition and conditions kept with m.
	reps := m.PinnedEdges()
	runs := make([]*Rooted, len(reps)) // planned on first use
	for i, e := range edges {
		at = i
		for k, r := range reps {
			if m.Type(r.U) != s.g.Type(e.U) || m.Type(r.V) != s.g.Type(e.V) {
				continue
			}
			if runs[k] == nil {
				d, conds := r.Plan()
				runs[k] = &Rooted{st: s.plan(m, d, conds, r.U, r.V)}
			}
			if !runs[k].sets(first, e.U, e.V) {
				return
			}
		}
	}
}

// plan builds the search state of m under decomposition d and conditions
// conds. pins are the positions placed first, whose one candidate each is
// pinned[k]; a plan pinned at two positions is ordered by each search
// (pinnedOrder).
func (s *SymISO) plan(m *metagraph.Metagraph, d *metagraph.Decomposition, conds []metagraph.Edge, pins ...int) *symState {
	groups := d.Groups
	st := &symState{
		s:      s,
		m:      m,
		groups: groups,
		conds:  conds,
		repPos: make([]int, m.N()),
		cur:    make([]graph.NodeID, m.N()),
		cands:  make([][]graph.NodeID, len(groups)),
		assign: make([]graph.NodeID, m.N()),
		pins:   pins,
	}
	for i := range st.assign {
		st.assign[i] = graph.InvalidNode
	}
	for gi := range groups {
		for i, v := range groups[gi].Representative().Nodes {
			st.repPos[v] = i
		}
	}

	// Precompute, per group and member, the member's neighbors *within the
	// group*: those are the only edges a sibling tuple pick must verify
	// (edges to D are guaranteed by the group's automorphism; internal
	// member edges by the representative's matching).
	st.groupNbrs = make([][][][]int, len(groups))
	for gi := range groups {
		g := &groups[gi]
		inGroup := make(map[int]bool)
		for _, c := range g.Members {
			for _, v := range c.Nodes {
				inGroup[v] = true
			}
		}
		st.groupNbrs[gi] = make([][][]int, len(g.Members))
		for k := range g.Members {
			nodes := g.Maps[k]
			nbrs := make([][]int, len(nodes))
			for i, u := range nodes {
				for _, w := range m.Neighbors(u) {
					if inGroup[w] {
						nbrs[i] = append(nbrs[i], w)
					}
				}
			}
			st.groupNbrs[gi][k] = nbrs
		}
	}
	if len(pins) < 2 {
		st.order = s.groupOrder(m, groups, pins)
		st.planSteps()
	}
	return st
}

// pinnedOrder returns the group order of a search pinned at two positions:
// the pins' singleton groups first, then, one at a time, the group with
// the fewest estimated candidates among those next to what is placed. A
// position next to a pin is estimated at the pinned node's typed degree,
// its exact candidate count; one next only to other placed positions at
// their estimate.
func (st *symState) pinnedOrder() []int {
	g, m := st.s.g, st.m
	var est [metagraph.MaxNodes]int
	placed := uint16(1)<<st.pins[0] | 1<<st.pins[1]
	order := make([]int, 0, len(st.groups))
	for _, p := range st.pins {
		order = append(order, slices.IndexFunc(st.groups, func(grp metagraph.Group) bool { return grp.Members[0].Nodes[0] == p }))
	}
	for len(order) < len(st.groups) {
		best, bestEst := -1, math.MaxInt
		for gi := range st.groups {
			if slices.Contains(order, gi) {
				continue
			}
			e := math.MaxInt
			for _, u := range st.groups[gi].Representative().Nodes {
				for _, q := range m.Neighbors(u) {
					if placed>>q&1 == 0 {
						continue
					}
					c := est[q]
					if k := slices.Index(st.pins, q); k >= 0 {
						c = g.DegreeOfType(st.pinned[k], m.Type(u))
					}
					e = min(e, c)
				}
			}
			if best < 0 || e < bestEst {
				best, bestEst = gi, e
			}
		}
		order = append(order, best)
		for _, c := range st.groups[best].Members {
			for _, u := range c.Nodes {
				placed |= 1 << u
				est[u] = bestEst
			}
		}
	}
	return order
}

// planSteps numbers the placements of the search in st.order and files
// each condition under the step that places the later of its two nodes.
// Depth k places a singleton or single-member group in one step, and a
// tuple's member j at step firstStep[k]+j. A condition a[previous member]
// < a[member] between two one-node members becomes the step's after flag
// instead: both pick from the same ascending candidate list, so the pick's
// scan starts past the previous one. It walks each representative from
// what the groups before it place (connectedOrder) and, last, decides
// whether the last group is a set (see setOf).
func (st *symState) planSteps() {
	stepOf := make([]int, st.m.N())
	st.firstStep = make([]int, len(st.order))
	st.repWalk = make([][]int, len(st.groups))
	n := 0
	var placed uint16
	for k, gi := range st.order {
		st.firstStep[k] = n
		st.repWalk[gi] = connectedOrder(st.m, st.groups[gi].Representative().Nodes, placed)
		for j, nodes := range st.groups[gi].Maps {
			for _, u := range nodes {
				stepOf[u] = n + j
				placed |= 1 << u
			}
		}
		n += len(st.groups[gi].Maps)
	}
	st.steps = make([]symStep, n)
	for _, c := range st.conds {
		s := &st.steps[max(stepOf[c.U], stepOf[c.V])]
		s.conds = append(s.conds, c)
	}
	for k, gi := range st.order {
		maps := st.groups[gi].Maps
		for j := 1; j < len(maps); j++ {
			if len(maps[j]) != 1 {
				continue
			}
			s := &st.steps[st.firstStep[k]+j]
			if i := slices.Index(s.conds, metagraph.Edge{U: maps[j-1][0], V: maps[j][0]}); i >= 0 {
				s.conds = slices.Delete(s.conds, i, i+1)
				s.after = true
			}
		}
	}
	st.setPos = st.setOf(len(st.order) - 1)
}

// setOf returns the positions of the group at depth k, member by member,
// when its choices are a set, and nil otherwise. They are when the group
// has at least two members of one node each and no edge between them, and
// its steps chain every member after the previous one and check nothing
// else but conditions between two members the chain already implies. With
// the rest of the metagraph placed, a member's candidates are then the
// representative's — the group's automorphisms fix everything else — and
// every ascending choice of distinct ones is an assignment the conditions
// keep: exactly the tuples tuple would pick, in its order.
func (st *symState) setOf(k int) []int {
	gi := st.order[k]
	maps := st.groups[gi].Maps
	if len(maps) < 2 || len(maps[0]) != 1 {
		return nil
	}
	pos := make([]int, len(maps))
	for j, nodes := range maps {
		pos[j] = nodes[0]
	}
	for j := range maps {
		s := &st.steps[st.firstStep[k]+j]
		if len(st.groupNbrs[gi][j][0]) != 0 || j > 0 && !s.after {
			return nil
		}
		for _, c := range s.conds {
			ju, jv := slices.Index(pos, c.U), slices.Index(pos, c.V)
			if ju < 0 || jv < 0 || ju > jv {
				return nil
			}
		}
	}
	return pos
}

// symStep is what one placement of the search checks.
type symStep struct {
	conds []metagraph.Edge // a[U] < a[V] for each, once the step's nodes are placed
	after bool             // the member's pick must follow the previous member's
}

// holds reports whether the current assignment satisfies the step's
// conditions.
func (st *symState) holds(s *symStep) bool {
	for _, c := range s.conds {
		if st.assign[c.U] >= st.assign[c.V] {
			return false
		}
	}
	return true
}

// groupOrder orders groups by the first appearance of any of their nodes
// in the node-level estimate order ("when a node of a component S is
// chosen, we select S as the next component"), or randomly (but
// connectivity-respecting) for SymISO-R. The estimate order starts at the
// pinned position, if there is one.
func (s *SymISO) groupOrder(m *metagraph.Metagraph, groups []metagraph.Group, pins []int) []int {
	idx := make([]int, len(groups))
	for i := range idx {
		idx[i] = i
	}
	if s.rng != nil {
		s.rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		return connectGroups(m, groups, idx)
	}
	if s.stats == nil {
		s.stats = NewGraphStats(s.g)
	}
	nodeOrder := estimateOrder(s.stats, m, pins)
	pos := make([]int, m.N())
	for p, v := range nodeOrder {
		pos[v] = p
	}
	first := make([]int, len(groups))
	for i, g := range groups {
		f := m.N()
		for _, c := range g.Members {
			for _, v := range c.Nodes {
				if pos[v] < f {
					f = pos[v]
				}
			}
		}
		first[i] = f
	}
	for a := 1; a < len(idx); a++ {
		for b := a; b > 0 && first[idx[b]] < first[idx[b-1]]; b-- {
			idx[b], idx[b-1] = idx[b-1], idx[b]
		}
	}
	return idx
}

// connectGroups reorders idx so that every group after the first touches
// an earlier group through some metagraph edge when possible, keeping the
// incoming (random) order otherwise.
func connectGroups(m *metagraph.Metagraph, groups []metagraph.Group, idx []int) []int {
	nodesOf := func(gi int) []int {
		var out []int
		for _, c := range groups[gi].Members {
			out = append(out, c.Nodes...)
		}
		return out
	}
	touches := func(gi int, placedMask uint16) bool {
		for _, u := range nodesOf(gi) {
			for _, w := range m.Neighbors(u) {
				if placedMask&(1<<uint(w)) != 0 {
					return true
				}
			}
		}
		return false
	}
	out := make([]int, 0, len(idx))
	remaining := append([]int(nil), idx...)
	var placed uint16
	for len(remaining) > 0 {
		pick := -1
		if len(out) > 0 {
			for i, gi := range remaining {
				if touches(gi, placed) {
					pick = i
					break
				}
			}
		}
		if pick == -1 {
			pick = 0
		}
		gi := remaining[pick]
		out = append(out, gi)
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		for _, u := range nodesOf(gi) {
			placed |= 1 << uint(u)
		}
	}
	return out
}

// symState carries the recursion state of MatchingByComponent (Alg. 3).
type symState struct {
	s      *SymISO
	m      *metagraph.Metagraph
	groups []metagraph.Group
	order  []int
	conds  []metagraph.Edge // filed under steps by planSteps

	// groupNbrs[gi][member][i] lists the group-internal metagraph
	// neighbors of member node i.
	groupNbrs [][][][]int
	// repWalk[gi] is the connected order in which componentMatchings
	// assigns group gi's representative; repPos[v] is v's index within
	// its representative's node list.
	repWalk [][]int
	repPos  []int

	// steps are the placements in search order (see planSteps); depth k's
	// first is steps[firstStep[k]].
	steps     []symStep
	firstStep []int
	// setPos holds the positions of the last group when its choices are
	// reported as one Set (see setOf), nil when they are searched.
	setPos []int

	// cands[k] holds the candidate matchings of the group at recursion
	// depth k, flat with stride len(rep.Nodes). A depth is never
	// re-entered while its matchings are in use, so the buffer is reused
	// by every call at that depth; cur is the one matching being built.
	cands [][]graph.NodeID
	cur   []graph.NodeID

	// assign holds the node on each position (graph.InvalidNode: none),
	// placed counts them by low byte; the search is injective (taken).
	assign  []graph.NodeID
	placed  [256]uint8
	visit   SetVisitor
	stopped bool
	// visited counts this search's nodes until it returns: workers'
	// SymISOs may share a cache line, so counting there slows mining.
	visited int64

	// pins are the positions whose one candidate each is pinned[k] (see
	// Root and GainedInstanceSets), none when nothing is pinned.
	pins   []int
	pinned [2]graph.NodeID
}

func (st *symState) matchGroup(k int) {
	if st.stopped {
		return
	}
	if k == len(st.order) {
		if !st.visit(Set{A: st.assign}) {
			st.stopped = true
		}
		return
	}
	gi := st.order[k]
	g := &st.groups[gi]
	rep := g.Representative()

	// Fast path: a singleton group with a single node behaves exactly like
	// one step of plain backtracking — no materialization needed.
	if len(g.Members) == 1 && len(rep.Nodes) == 1 {
		u, step := rep.Nodes[0], &st.steps[st.firstStep[k]]
		for _, v := range st.candidatesFor(u) {
			if st.taken(v) || !st.consistent(u, v) {
				continue
			}
			st.visited++
			st.place(u, v)
			if st.holds(step) {
				st.matchGroup(k + 1)
			}
			st.unplace(u)
			if st.stopped {
				return
			}
		}
		return
	}

	// C(S|D): candidate matchings of the representative component, each
	// aligned with rep.Nodes. Computed once for the whole group.
	st.cands[k] = st.componentMatchings(st.cands[k][:0], st.repWalk[gi], 0)
	if len(st.cands[k]) == 0 {
		return
	}

	if len(g.Members) == 1 {
		w, step := len(rep.Nodes), &st.steps[st.firstStep[k]]
		for off := 0; off < len(st.cands[k]); off += w {
			c := st.cands[k][off : off+w]
			st.apply(rep.Nodes, c)
			if st.holds(step) {
				st.matchGroup(k + 1)
			}
			st.unapply(rep.Nodes)
			if st.stopped {
				return
			}
		}
		return
	}
	if st.setPos != nil && k == len(st.order)-1 {
		if len(st.cands[k]) >= len(st.setPos) && !st.visit(Set{A: st.assign, P: st.setPos, F: st.cands[k]}) {
			st.stopped = true
		}
		return
	}
	st.tuple(k, 0, 0)
}

// tuple chooses an ordered tuple of node-disjoint matchings, one per
// member of the group at depth k, reusing that depth's candidate
// matchings for all of them. Constraints against D hold for free (the
// group's automorphisms fix D); only the group-internal cross edges and
// the step's conditions are verified as each member j is placed. prev is
// the offset member j-1 picked; a member whose step has the after flag
// scans from past it, since the candidates are one ascending node each.
func (st *symState) tuple(k, j, prev int) {
	if st.stopped {
		return
	}
	gi := st.order[k]
	g := &st.groups[gi]
	if j == len(g.Members) {
		st.matchGroup(k + 1)
		return
	}
	nodes := g.Maps[j]
	nbrs := st.groupNbrs[gi][j]
	cands, w := st.cands[k], len(nodes)
	step := &st.steps[st.firstStep[k]+j]
	start := 0
	if step.after {
		start = prev + w
	}
	for off := start; off < len(cands); off += w {
		c := cands[off : off+w]
		if !st.free(c) {
			continue
		}
		if j > 0 && !st.groupCrossConsistent(nodes, nbrs, c) {
			continue
		}
		st.visited++
		st.apply(nodes, c)
		if st.holds(step) {
			st.tuple(k, j+1, off)
		}
		st.unapply(nodes)
		if st.stopped {
			return
		}
	}
}

// candidatesFor returns the candidate list for a single metagraph node:
// the pinned node on a pinned position, else the typed adjacency of the
// cheapest assigned neighbor, or the full type list if none is assigned
// yet.
func (st *symState) candidatesFor(u int) []graph.NodeID {
	for k, p := range st.pins {
		if u == p {
			return st.pinned[k : k+1]
		}
	}
	pivot := graph.InvalidNode
	bestDeg := 0
	for _, w := range st.m.Neighbors(u) {
		a := st.assign[w]
		if a == graph.InvalidNode {
			continue
		}
		d := st.s.g.DegreeOfType(a, st.m.Type(u))
		if pivot == graph.InvalidNode || d < bestDeg {
			pivot, bestDeg = a, d
		}
	}
	if pivot != graph.InvalidNode {
		return st.s.g.NeighborsOfType(pivot, st.m.Type(u))
	}
	return st.s.g.NodesOfType(st.m.Type(u))
}

// consistent checks every assigned metagraph neighbor of u against v.
func (st *symState) consistent(u int, v graph.NodeID) bool {
	for _, w := range st.m.Neighbors(u) {
		if a := st.assign[w]; a != graph.InvalidNode && !st.s.g.HasEdge(v, a) {
			return false
		}
	}
	return true
}

// componentMatchings appends to out every assignment of a representative's
// nodes, walked in the connected order walk from position i, that is
// consistent with the current partial assignment: type-preserving,
// injective against placed nodes, and preserving every metagraph edge whose
// other endpoint is already assigned or earlier in the walk. Each matching
// is aligned with the representative's node list.
func (st *symState) componentMatchings(out []graph.NodeID, walk []int, i int) []graph.NodeID {
	if i == len(walk) {
		return append(out, st.cur[:len(walk)]...)
	}
	u := walk[i]
	for _, v := range st.candidatesFor(u) {
		if st.taken(v) || !st.consistent(u, v) {
			continue
		}
		st.visited++
		st.place(u, v)
		st.cur[st.repPos[u]] = v
		out = st.componentMatchings(out, walk, i+1)
		st.unplace(u)
	}
	return out
}

// taken reports whether v is placed on some position, looking among the
// ≤ MaxNodes placed ones only when one of them shares v's low byte.
func (st *symState) taken(v graph.NodeID) bool {
	return st.placed[uint8(v)] != 0 && slices.Contains(st.assign, v)
}

// place puts v on position u, and unplace takes it off again.
func (st *symState) place(u int, v graph.NodeID) {
	st.assign[u] = v
	st.placed[uint8(v)]++
}

func (st *symState) unplace(u int) {
	st.placed[uint8(st.assign[u])]--
	st.assign[u] = graph.InvalidNode
}

// free reports whether none of the matching's graph nodes is already
// placed.
func (st *symState) free(c []graph.NodeID) bool {
	for _, v := range c {
		if st.taken(v) {
			return false
		}
	}
	return true
}

// groupCrossConsistent verifies only the group-internal metagraph edges of
// a sibling member against what is assigned so far. Edges to D need no
// check (symmetry), nor do edges within the member (automorphism image of
// the representative's internal edges, verified in componentMatchings).
func (st *symState) groupCrossConsistent(nodes []int, nbrs [][]int, c []graph.NodeID) bool {
	for i := range nodes {
		v := c[i]
		for _, w := range nbrs[i] {
			if a := st.assign[w]; a != graph.InvalidNode && !st.s.g.HasEdge(v, a) {
				return false
			}
		}
	}
	return true
}

// apply installs a matching of the given metagraph nodes.
func (st *symState) apply(nodes []int, c []graph.NodeID) {
	for i, u := range nodes {
		st.place(u, c[i])
	}
}

// unapply reverts apply.
func (st *symState) unapply(nodes []int) {
	for _, u := range nodes {
		st.unplace(u)
	}
}
