package metagraph

import "repro/internal/graph"

// Symmetry machinery for Def. 1 of the paper: a metagraph M is symmetric if
// there is a non-empty set Ψ of disjoint pairs of distinct nodes such that
// exchanging the nodes of every pair in Ψ (and fixing all other nodes)
// leaves E_M unchanged. Such an exchange is exactly a type-preserving
// involutive automorphism of M that is a product of disjoint transpositions,
// so we enumerate those.

// Involution represents one symmetry of the metagraph: Perm is the full node
// permutation (Perm[Perm[i]] == i) and Pairs lists its transpositions, i.e.
// the set Ψ, with each pair stored as (small, large).
type Involution struct {
	Perm  []int
	Pairs []Edge
}

// Automorphisms returns every type-preserving automorphism of m as a
// permutation slice (perm[i] = image of node i). The identity is included.
// Metagraphs are at most MaxNodes nodes, so exhaustive backtracking is
// exact and fast.
func (m *Metagraph) Automorphisms() [][]int {
	n := m.N()
	perm := make([]int, n)
	used := make([]bool, n)
	var out [][]int
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			out = append(out, append([]int(nil), perm...))
			return
		}
		for c := 0; c < n; c++ {
			if used[c] || m.types[c] != m.types[i] {
				continue
			}
			// Adjacency to already-placed nodes must be preserved.
			ok := true
			for j := 0; j < i; j++ {
				if m.HasEdge(i, j) != m.HasEdge(c, perm[j]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			perm[i] = c
			used[c] = true
			rec(i + 1)
			used[c] = false
		}
	}
	rec(0)
	return out
}

// SymmetryConditions returns the symmetry-breaking conditions of m
// (Grochow & Kellis, RECOMB 2007): pairs (U, V), U < V, read as "a[U] <
// a[V]". An injective assignment a satisfies every one of them iff it is
// the lexicographically least of {a∘σ : σ ∈ Aut(m)}, so exactly one
// assignment per instance does. The list is empty iff Aut(m) is trivial.
func (m *Metagraph) SymmetryConditions() []Edge {
	return chainConditions(m.Automorphisms(), m.N())
}

// StabilizerConditions returns the symmetry-breaking conditions of the
// automorphisms of m that fix every node of fixed: an injective assignment
// a satisfies them iff it is the least of {a∘σ : σ ∈ Aut(m), σ(r) = r for
// each r of fixed}. The assignments of one instance that place given nodes
// on the fixed positions are one such set, so exactly one of them
// satisfies the conditions. None names a fixed node.
func (m *Metagraph) StabilizerConditions(fixed ...int) []Edge {
	var stab [][]int
	for _, s := range m.Automorphisms() {
		if fixes(s, fixed) {
			stab = append(stab, s)
		}
	}
	return chainConditions(stab, m.N())
}

// chainConditions returns the conditions of the permutation group g on n
// nodes, read as SymmetryConditions reads them. They walk the stabilizer
// chain in ascending node order: with G the elements fixing nodes 0..u-1,
// every other node v of u's G-orbit gives a[u] < a[v] (a σ ∈ G moving u to
// v leaves a∘σ equal to a before u and a[v] at u), and G shrinks to the
// stabilizer of u before u+1. Every node of the orbit is above u, since G
// fixes the nodes below it.
func chainConditions(g [][]int, n int) []Edge {
	var out []Edge
	for u := 0; u < n && len(g) > 1; u++ {
		var orbit uint16
		for _, s := range g {
			orbit |= 1 << uint(s[u])
		}
		for v := u + 1; v < n; v++ {
			if orbit&(1<<uint(v)) != 0 {
				out = append(out, Edge{u, v})
			}
		}
		stab := g[:0]
		for _, s := range g {
			if s[u] == u {
				stab = append(stab, s)
			}
		}
		g = stab
	}
	return out
}

// Involutions returns the non-identity automorphisms of m that are products
// of disjoint transpositions (σ∘σ = id), i.e. every witness Ψ for Def. 1.
func (m *Metagraph) Involutions() []Involution {
	var out []Involution
	for _, p := range m.Automorphisms() {
		ok := false
		isInv := true
		for i, pi := range p {
			if p[pi] != i {
				isInv = false
				break
			}
			if pi != i {
				ok = true
			}
		}
		if !isInv || !ok {
			continue
		}
		inv := Involution{Perm: p}
		for i, pi := range p {
			if i < pi {
				inv.Pairs = append(inv.Pairs, Edge{i, pi})
			}
		}
		out = append(out, inv)
	}
	return out
}

// SymmetricPairs returns all unordered node pairs (u, u') that are symmetric
// to each other in m (Def. 1): pairs appearing as a transposition of some
// involutive automorphism. Pairs are returned with U < V, sorted.
func (m *Metagraph) SymmetricPairs() []Edge {
	set := make(map[Edge]struct{})
	for _, inv := range m.Involutions() {
		for _, p := range inv.Pairs {
			set[p] = struct{}{}
		}
	}
	out := make([]Edge, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	SortEdges(out)
	return out
}

// IsSymmetric reports whether m is a symmetric metagraph per Def. 1.
func (m *Metagraph) IsSymmetric() bool {
	return len(m.SymmetricPairs()) > 0
}

// SymmetricPartners returns, for each node, the set of nodes it is symmetric
// to, as a bitmask slice indexed by node.
func (m *Metagraph) SymmetricPartners() []uint16 {
	out := make([]uint16, m.N())
	for _, p := range m.SymmetricPairs() {
		out[p.U] |= 1 << uint(p.V)
		out[p.V] |= 1 << uint(p.U)
	}
	return out
}

// AnchorPairs returns the symmetric pairs whose two nodes both have type t.
// These are the positions where a node pair (x, y) of interest can land for
// the ContainsSym predicate of Eq. 1: φ(x) and φ(y) must be symmetric to
// each other, and for proximity between users both must be user-typed.
func (m *Metagraph) AnchorPairs(t graph.TypeID) []Edge {
	var out []Edge
	for _, p := range m.SymmetricPairs() {
		if m.types[p.U] == t && m.types[p.V] == t {
			out = append(out, p)
		}
	}
	return out
}
