package match

import (
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
// InstanceSets reports the list instead of choosing.
type SymISO struct {
	g     *graph.Graph
	stats *GraphStats
	rng   *rand.Rand // non-nil for SymISO-R: random component order
}

// NewSymISO builds a SymISO engine for g with the estimated-instances
// component order of Sect. IV-C.
func NewSymISO(g *graph.Graph) *SymISO {
	return &SymISO{g: g, stats: NewGraphStats(g)}
}

// NewSymISOR builds SymISO-R, the ablation with a random matching order
// (used in Fig. 11 to show the value of the ordering). The random order
// still prefers connectivity to the matched prefix — a fully arbitrary
// order can degenerate to full type scans, which no implementation would
// ship.
func NewSymISOR(g *graph.Graph, seed int64) *SymISO {
	return &SymISO{g: g, stats: NewGraphStats(g), rng: rand.New(rand.NewSource(seed))}
}

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
	st := s.plan(m, metagraph.Decompose(m), conds, -1)
	st.visit = visit
	st.matchGroup(0)
}

// Rooted is the rooted form of InstanceSets over SymISO for one metagraph
// and one position r of it: Sets(v) reports the instances that hold node v
// on r, each once. Root plans the search once, and every Sets call reuses
// the plan and its scratch, so a Rooted serves one goroutine.
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
func (p *Rooted) Sets(v graph.NodeID, visit SetVisitor) {
	st := p.st
	if v < 0 || int(v) >= st.s.g.NumNodes() || st.s.g.Type(v) != st.m.Type(st.pin) {
		return
	}
	st.pinned[0] = v
	st.visit, st.stopped = visit, false
	st.matchGroup(0)
}

// plan builds the search state of m under decomposition d and conditions
// conds. pin is the position placed first, whose one candidate is
// pinned[0]; -1 pins nothing.
func (s *SymISO) plan(m *metagraph.Metagraph, d *metagraph.Decomposition, conds []metagraph.Edge, pin int) *symState {
	groups := d.Groups
	order := s.groupOrder(m, groups, pin)

	st := &symState{
		s:       s,
		m:       m,
		groups:  groups,
		order:   order,
		repPos:  make([]int, m.N()),
		cur:     make([]graph.NodeID, m.N()),
		cands:   make([][]graph.NodeID, len(order)),
		assign:  make([]graph.NodeID, m.N()),
		used:    make([]bool, s.g.NumNodes()),
		repWalk: make([][]int, len(groups)),
		pin:     pin,
	}
	for i := range st.assign {
		st.assign[i] = graph.InvalidNode
	}
	for gi := range groups {
		rep := groups[gi].Representative().Nodes
		st.repWalk[gi] = connectedOrder(m, rep)
		for i, v := range rep {
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
	st.planSteps(conds)
	return st
}

// planSteps numbers the placements of the search and files each condition
// under the step that places the later of its two nodes. Depth k places a
// singleton or single-member group in one step, and a tuple's member j at
// step firstStep[k]+j. A condition a[previous member] < a[member] between
// two one-node members becomes the step's after flag instead: both pick
// from the same ascending candidate list, so the pick's scan starts past
// the previous one. Last, it decides whether the last group is a set (see
// setOf).
func (st *symState) planSteps(conds []metagraph.Edge) {
	stepOf := make([]int, st.m.N())
	st.firstStep = make([]int, len(st.order))
	n := 0
	for k, gi := range st.order {
		st.firstStep[k] = n
		for j, nodes := range st.groups[gi].Maps {
			for _, u := range nodes {
				stepOf[u] = n + j
			}
		}
		n += len(st.groups[gi].Maps)
	}
	st.steps = make([]symStep, n)
	for _, c := range conds {
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
// connectivity-respecting) for SymISO-R. The estimate order starts at node
// start when it is not -1.
func (s *SymISO) groupOrder(m *metagraph.Metagraph, groups []metagraph.Group, start int) []int {
	idx := make([]int, len(groups))
	for i := range idx {
		idx[i] = i
	}
	if s.rng != nil {
		s.rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		return connectGroups(m, groups, idx)
	}
	nodeOrder := estimateOrder(s.stats, m, start)
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

	assign  []graph.NodeID
	used    []bool
	visit   SetVisitor
	stopped bool

	// pin is the position whose one candidate is pinned[0] (see Root), -1
	// when nothing is pinned.
	pin    int
	pinned [1]graph.NodeID
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
			if st.used[v] || !st.consistent(u, v) {
				continue
			}
			st.assign[u] = v
			st.used[v] = true
			if st.holds(step) {
				st.matchGroup(k + 1)
			}
			st.used[v] = false
			st.assign[u] = graph.InvalidNode
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
			st.unapply(rep.Nodes, c)
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
		st.apply(nodes, c)
		if st.holds(step) {
			st.tuple(k, j+1, off)
		}
		st.unapply(nodes, c)
		if st.stopped {
			return
		}
	}
}

// candidatesFor returns the candidate list for a single metagraph node:
// the pinned node on the pinned position, else the typed adjacency of the
// cheapest assigned neighbor, or the full type list if none is assigned
// yet.
func (st *symState) candidatesFor(u int) []graph.NodeID {
	if u == st.pin {
		return st.pinned[:]
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
// injective against used nodes, and preserving every metagraph edge whose
// other endpoint is already assigned or earlier in the walk. Each matching
// is aligned with the representative's node list.
func (st *symState) componentMatchings(out []graph.NodeID, walk []int, i int) []graph.NodeID {
	if i == len(walk) {
		return append(out, st.cur[:len(walk)]...)
	}
	u := walk[i]
	for _, v := range st.candidatesFor(u) {
		if st.used[v] || !st.consistent(u, v) {
			continue
		}
		st.assign[u] = v
		st.used[v] = true
		st.cur[st.repPos[u]] = v
		out = st.componentMatchings(out, walk, i+1)
		st.used[v] = false
		st.assign[u] = graph.InvalidNode
	}
	return out
}

// free reports whether none of the matching's graph nodes is already used.
func (st *symState) free(c []graph.NodeID) bool {
	for _, v := range c {
		if st.used[v] {
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
		st.assign[u] = c[i]
		st.used[c[i]] = true
	}
}

// unapply reverts apply.
func (st *symState) unapply(nodes []int, c []graph.NodeID) {
	for i, u := range nodes {
		st.assign[u] = graph.InvalidNode
		st.used[c[i]] = false
	}
}
