package metagraph

import "sort"

// Decomposition machinery for SymISO (Sect. IV-C). The node set V_M is
// partitioned into disjoint components: a singleton for every node that is
// not symmetric to any other node, and, for symmetric nodes, connected
// components that are pairwise symmetric to sibling components via an
// involutive automorphism. Components that are symmetric to one another form
// a Group; the matcher computes candidate matchings once for the group's
// representative component and reuses them for the siblings.

// Component is one part of the decomposition: a set of metagraph node
// indices (sorted ascending).
type Component struct {
	Nodes []int
}

// contains reports whether node v belongs to the component.
func (c Component) contains(v int) bool {
	for _, u := range c.Nodes {
		if u == v {
			return true
		}
	}
	return false
}

// Group is a set of mutually symmetric components. Members[0] is the
// representative. For k ≥ 1, Maps[k] is a bijection from representative
// nodes to member-k nodes: Maps[k][i] is the image of Members[0].Nodes[i].
// Maps[0] is the identity on the representative's nodes. Each Maps[k] comes
// from an involutive automorphism of M that fixes every node outside
// Members[0] ∪ Members[k], which is what justifies reusing candidate
// matchings across the group during matching.
type Group struct {
	Members []Component
	Maps    [][]int
}

// Representative returns the group's representative component.
func (g Group) Representative() Component { return g.Members[0] }

// Decomposition is the full component structure of a metagraph.
type Decomposition struct {
	M      *Metagraph
	Groups []Group // singleton groups have exactly one member
}

// NumComponents returns the total number of components across groups.
func (d *Decomposition) NumComponents() int {
	n := 0
	for _, g := range d.Groups {
		n += len(g.Members)
	}
	return n
}

// Decompose partitions m's nodes into symmetric-component groups.
//
// The construction follows Sect. IV-C: nodes that are not symmetric to any
// other node become singleton components (each its own group). Remaining
// nodes are processed smallest-first: we pick the involution that pairs the
// node with an unassigned partner and maximizes the number of transpositions
// over unassigned nodes; the connected components of the involution's "left"
// node set become representatives, and their images the sibling components.
// Additional siblings are attached when another involution maps an existing
// representative onto a disjoint set of still-unassigned nodes.
func Decompose(m *Metagraph) *Decomposition { return decompose(m, m.Involutions()) }

// DecomposeFixing is Decompose under the involutions of m that fix every
// node of fixed, so that each of them is a singleton component: every
// group's maps still come from automorphisms of m that fix the nodes
// outside the group, the fixed ones among them. A rooted match, which
// places the fixed nodes first, decomposes the rest with it.
func DecomposeFixing(m *Metagraph, fixed ...int) *Decomposition {
	var invs []Involution
	for _, inv := range m.Involutions() {
		if fixes(inv.Perm, fixed) {
			invs = append(invs, inv)
		}
	}
	return decompose(m, invs)
}

// fixes reports whether the permutation fixes every node of fixed.
func fixes(perm, fixed []int) bool {
	for _, r := range fixed {
		if perm[r] != r {
			return false
		}
	}
	return true
}

// decompose partitions m's nodes into groups symmetric under invs, a set
// of involutive automorphisms of m.
func decompose(m *Metagraph, invs []Involution) *Decomposition {
	n := m.N()
	d := &Decomposition{M: m}
	partners := make([]uint16, n)
	for _, inv := range invs {
		for _, p := range inv.Pairs {
			partners[p.U] |= 1 << uint(p.V)
			partners[p.V] |= 1 << uint(p.U)
		}
	}

	assigned := make([]bool, n)

	// Singleton components for asymmetric nodes.
	for v := 0; v < n; v++ {
		if partners[v] == 0 {
			assigned[v] = true
			d.Groups = append(d.Groups, Group{
				Members: []Component{{Nodes: []int{v}}},
				Maps:    [][]int{{v}},
			})
		}
	}

	// unassignedMask returns the bitmask of still-unassigned nodes.
	unassignedMask := func() uint16 {
		var mask uint16
		for v := 0; v < n; v++ {
			if !assigned[v] {
				mask |= 1 << uint(v)
			}
		}
		return mask
	}

	for {
		// Smallest unassigned symmetric node.
		u := -1
		for v := 0; v < n; v++ {
			if !assigned[v] {
				u = v
				break
			}
		}
		if u == -1 {
			break
		}
		free := unassignedMask()

		// Choose the involution moving u whose transpositions stay within
		// unassigned nodes and are most numerous (ties: first found). More
		// transpositions mean larger symmetric components and thus more
		// reuse during matching.
		best := -1
		bestScore := -1
		for i, inv := range invs {
			if inv.Perm[u] == u {
				continue
			}
			score := 0
			ok := true
			for _, p := range inv.Pairs {
				bits := uint16(1<<uint(p.U) | 1<<uint(p.V))
				if free&bits == bits {
					score++
				} else if p.U == u || p.V == u {
					ok = false
					break
				}
			}
			if ok && score > bestScore {
				best, bestScore = i, score
			}
		}
		if best == -1 {
			// No usable involution remains (partners already consumed by
			// earlier components); fall back to a singleton so the
			// decomposition stays a partition.
			assigned[u] = true
			d.Groups = append(d.Groups, Group{
				Members: []Component{{Nodes: []int{u}}},
				Maps:    [][]int{{u}},
			})
			continue
		}

		inv := invs[best]
		// Usable transpositions: both endpoints still unassigned.
		var usable []Edge
		for _, p := range inv.Pairs {
			bits := uint16(1<<uint(p.U) | 1<<uint(p.V))
			if free&bits == bits {
				usable = append(usable, p)
			}
		}

		// Split the usable transpositions into minimal sub-involutions that
		// are each automorphisms on their own. A connectivity-based split
		// (as sketched in the paper) is unsound when transpositions are
		// entangled — e.g. swapping (a,b) alone may break edges that the
		// joint swap with (c,d) preserves — so we test automorphism-ness of
		// subsets directly, which is exact at metagraph sizes.
		for _, unit := range minimalUnits(m, usable) {
			// A previous unit's group extension may have absorbed this
			// unit's nodes already (e.g. the units of a double
			// transposition over four mutually symmetric leaves); skip it
			// to keep the decomposition a partition.
			taken := false
			for _, p := range unit {
				if assigned[p.U] || assigned[p.V] {
					taken = true
					break
				}
			}
			if taken {
				continue
			}
			comp := make([]int, 0, len(unit))
			for _, p := range unit {
				comp = append(comp, p.U)
			}
			sort.Ints(comp)
			perm := identityPerm(n)
			for _, p := range unit {
				perm[p.U], perm[p.V] = p.V, p.U
			}
			img := make([]int, len(comp))
			for i, v := range comp {
				img[i] = perm[v]
			}
			rep := Component{Nodes: append([]int(nil), comp...)}
			sib := Component{Nodes: append([]int(nil), img...)}
			sort.Ints(sib.Nodes)
			g := Group{
				Members: []Component{rep, sib},
				Maps:    [][]int{append([]int(nil), comp...), img},
			}
			for _, v := range comp {
				assigned[v] = true
			}
			for _, v := range img {
				assigned[v] = true
			}

			// Extend the group with further siblings: involutions mapping
			// the representative onto disjoint, still-unassigned node sets
			// while fixing everything else outside rep ∪ image.
			for {
				added := false
				free := unassignedMask()
				for _, inv2 := range invs {
					img2 := make([]int, len(comp))
					ok := true
					var imgMask uint16
					for i, v := range comp {
						w := inv2.Perm[v]
						if w == v {
							ok = false
							break
						}
						img2[i] = w
						imgMask |= 1 << uint(w)
					}
					if !ok || free&imgMask != imgMask {
						continue
					}
					// inv2 must fix every node outside comp ∪ img2.
					var compMask uint16
					for _, v := range comp {
						compMask |= 1 << uint(v)
					}
					fixesRest := true
					for v := 0; v < n; v++ {
						bit := uint16(1) << uint(v)
						if compMask&bit == 0 && imgMask&bit == 0 && inv2.Perm[v] != v {
							fixesRest = false
							break
						}
					}
					if !fixesRest {
						continue
					}
					sibNodes := append([]int(nil), img2...)
					sort.Ints(sibNodes)
					g.Members = append(g.Members, Component{Nodes: sibNodes})
					g.Maps = append(g.Maps, img2)
					for _, v := range img2 {
						assigned[v] = true
					}
					added = true
					break
				}
				if !added {
					break
				}
			}
			d.Groups = append(d.Groups, g)
		}
	}

	// Deterministic group order: by smallest node of the representative.
	sort.Slice(d.Groups, func(i, j int) bool {
		return d.Groups[i].Members[0].Nodes[0] < d.Groups[j].Members[0].Nodes[0]
	})
	return d
}

// minimalUnits partitions pairs into minimal subsets whose standalone swap
// (fixing all other nodes) is a type-preserving automorphism of m. Subsets
// are examined in increasing size, so extracted units are minimal; the
// whole set is always an automorphism (it came from an involution), so the
// recursion terminates.
func minimalUnits(m *Metagraph, pairs []Edge) [][]Edge {
	var units [][]Edge
	remaining := append([]Edge(nil), pairs...)
	for len(remaining) > 0 {
		k := len(remaining)
		found := false
		for size := 1; size <= k && !found; size++ {
			combinations(k, size, func(idx []int) bool {
				unit := make([]Edge, 0, size)
				for _, i := range idx {
					unit = append(unit, remaining[i])
				}
				if !swapIsAutomorphism(m, unit) {
					return true // keep searching
				}
				units = append(units, unit)
				picked := make(map[int]bool, size)
				for _, i := range idx {
					picked[i] = true
				}
				var rest []Edge
				for i, p := range remaining {
					if !picked[i] {
						rest = append(rest, p)
					}
				}
				remaining = rest
				found = true
				return false
			})
		}
		if !found {
			// Cannot happen: the full remaining set is an automorphism.
			units = append(units, remaining)
			remaining = nil
		}
	}
	return units
}

// combinations calls fn with every size-k index subset of 0..n-1 in
// lexicographic order until fn returns false.
func combinations(n, k int, fn func([]int) bool) {
	idx := make([]int, k)
	var rec func(start, d int) bool
	rec = func(start, d int) bool {
		if d == k {
			return fn(idx)
		}
		for i := start; i < n; i++ {
			idx[d] = i
			if !rec(i+1, d+1) {
				return false
			}
		}
		return true
	}
	rec(0, 0)
}

// swapIsAutomorphism reports whether exchanging exactly the given pairs
// (fixing every other node) preserves E_M.
func swapIsAutomorphism(m *Metagraph, pairs []Edge) bool {
	perm := identityPerm(m.N())
	for _, p := range pairs {
		perm[p.U], perm[p.V] = p.V, p.U
	}
	for _, e := range m.Edges() {
		if !m.HasEdge(perm[e.U], perm[e.V]) {
			return false
		}
	}
	return true
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}
