package metagraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// Type ids used across the tests, mirroring the paper's toy examples.
const (
	tUser graph.TypeID = iota
	tSchool
	tMajor
	tEmployer
	tHobby
	tAddress
	tSurname
)

// m1 is metagraph M1 of Fig. 2(a): two users sharing a school and a major.
// Nodes: 0,1 = user; 2 = school; 3 = major.
func m1() *Metagraph {
	return MustNew(
		[]graph.TypeID{tUser, tUser, tSchool, tMajor},
		[]Edge{{0, 2}, {1, 2}, {0, 3}, {1, 3}},
	)
}

// m2 is M2 of Fig. 2(b): two users sharing an employer and a hobby.
func m2() *Metagraph {
	return MustNew(
		[]graph.TypeID{tUser, tUser, tEmployer, tHobby},
		[]Edge{{0, 2}, {1, 2}, {0, 3}, {1, 3}},
	)
}

// m3 is M3 of Fig. 2(b): the metapath user–address–user.
func m3() *Metagraph {
	return MustNew(
		[]graph.TypeID{tUser, tAddress, tUser},
		[]Edge{{0, 1}, {1, 2}},
	)
}

// m4 is M4 of Fig. 2(c): two users sharing a surname and an address.
func m4() *Metagraph {
	return MustNew(
		[]graph.TypeID{tUser, tUser, tSurname, tAddress},
		[]Edge{{0, 2}, {1, 2}, {0, 3}, {1, 3}},
	)
}

// m5 is M5 of Fig. 5: six nodes, where {u1,u2} is symmetric to {u5,u6}
// jointly but not independently. Indices: 0=u1(user), 1=u2(major),
// 2=u3(school), 3=u4(user), 4=u5(user), 5=u6(major).
func m5() *Metagraph {
	return MustNew(
		[]graph.TypeID{tUser, tMajor, tSchool, tUser, tUser, tMajor},
		[]Edge{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {2, 5}},
	)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Fatal("New accepted empty node set")
	}
	if _, err := New([]graph.TypeID{0, 0}, []Edge{{0, 0}}); err == nil {
		t.Fatal("New accepted a self loop")
	}
	if _, err := New([]graph.TypeID{0, 0}, []Edge{{0, 5}}); err == nil {
		t.Fatal("New accepted out-of-range endpoint")
	}
	if _, err := New([]graph.TypeID{0, 0}, nil); err == nil {
		t.Fatal("New accepted a disconnected pattern")
	}
	big := make([]graph.TypeID, MaxNodes+1)
	if _, err := New(big, nil); err == nil {
		t.Fatal("New accepted an oversized pattern")
	}
	// Duplicate edges are tolerated and collapse.
	m, err := New([]graph.TypeID{0, 0}, []Edge{{0, 1}, {1, 0}, {0, 1}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if m.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", m.NumEdges())
	}
}

func TestBasicAccessors(t *testing.T) {
	m := m1()
	if m.N() != 4 || m.NumEdges() != 4 || m.Size() != 8 {
		t.Fatalf("N=%d E=%d Size=%d", m.N(), m.NumEdges(), m.Size())
	}
	if m.Type(2) != tSchool {
		t.Fatalf("Type(2) = %d", m.Type(2))
	}
	if !m.HasEdge(0, 2) || m.HasEdge(0, 1) || m.HasEdge(2, 2) {
		t.Fatal("HasEdge wrong")
	}
	if m.Degree(0) != 2 || m.Degree(2) != 2 {
		t.Fatal("Degree wrong")
	}
	if got := m.Neighbors(0); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Fatalf("Neighbors(0) = %v", got)
	}
	if got := m.NodesOfType(tUser); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("NodesOfType(user) = %v", got)
	}
	if m.CountType(tUser) != 2 || m.CountType(tHobby) != 0 {
		t.Fatal("CountType wrong")
	}
	if m.String() == "" {
		t.Fatal("empty String")
	}
	reg := graph.NewTypeRegistry()
	for _, n := range []string{"user", "school", "major", "employer", "hobby", "address", "surname"} {
		reg.Register(n)
	}
	if m.Pretty(reg) == "" {
		t.Fatal("empty Pretty")
	}
}

// TestNeighborsCachedAndAllocFree pins what matchers rely on in their
// innermost loops: Neighbors is the ascending adjacency of every node, on
// metagraphs from every constructor, and costs no allocation.
func TestNeighborsCachedAndAllocFree(t *testing.T) {
	ext, err := m1().ExtendNode(1, tHobby)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := m2().ExtendEdge(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	perm, err := m5().Permute([]int{5, 4, 3, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Metagraph{m1(), m2(), m3(), m4(), m5(), ext, closed, perm} {
		for i := 0; i < m.N(); i++ {
			var want []int
			for j := 0; j < m.N(); j++ {
				if m.HasEdge(i, j) {
					want = append(want, j)
				}
			}
			if got := m.Neighbors(i); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: Neighbors(%d) = %v, want %v", m, i, got, want)
			}
			if got := m.Neighbors(i); cap(got) != len(got) {
				t.Fatalf("%v: Neighbors(%d) has spare capacity %d", m, i, cap(got)-len(got))
			}
		}
		if a := testing.AllocsPerRun(100, func() { _ = m.Neighbors(m.N() - 1) }); a != 0 {
			t.Fatalf("%v: Neighbors allocates %v times", m, a)
		}
	}
}

func TestIsPath(t *testing.T) {
	if !m3().IsPath() {
		t.Fatal("M3 (user–address–user) should be a path")
	}
	for _, m := range []*Metagraph{m1(), m2(), m4()} {
		if m.IsPath() {
			t.Fatalf("%v should not be a path", m)
		}
	}
	p, err := NewPath(tUser, tHobby, tUser, tHobby, tUser)
	if err != nil {
		t.Fatalf("NewPath: %v", err)
	}
	if !p.IsPath() {
		t.Fatal("NewPath result should be a path")
	}
	single := MustNew([]graph.TypeID{tUser}, nil)
	if !single.IsPath() {
		t.Fatal("single node counts as a path")
	}
}

func TestExtend(t *testing.T) {
	m := m3()
	m2x, err := m.ExtendNode(1, tUser)
	if err != nil {
		t.Fatalf("ExtendNode: %v", err)
	}
	if m2x.N() != 4 || !m2x.HasEdge(1, 3) {
		t.Fatal("ExtendNode wrong shape")
	}
	if _, err := m.ExtendNode(9, tUser); err == nil {
		t.Fatal("ExtendNode accepted bad node")
	}
	me, err := m2x.ExtendEdge(0, 3)
	if err != nil {
		t.Fatalf("ExtendEdge: %v", err)
	}
	if !me.HasEdge(0, 3) {
		t.Fatal("ExtendEdge lost edge")
	}
	if _, err := me.ExtendEdge(0, 3); err == nil {
		t.Fatal("ExtendEdge accepted duplicate")
	}
}

func TestPermute(t *testing.T) {
	m := m1()
	p, err := m.Permute([]int{3, 2, 1, 0})
	if err != nil {
		t.Fatalf("Permute: %v", err)
	}
	if p.Type(3) != tUser || p.Type(1) != tSchool {
		t.Fatal("Permute mislabeled types")
	}
	if !p.HasEdge(3, 1) {
		t.Fatal("Permute lost an edge")
	}
	if _, err := m.Permute([]int{0, 0, 1, 2}); err == nil {
		t.Fatal("Permute accepted a non-permutation")
	}
	if _, err := m.Permute([]int{0, 1}); err == nil {
		t.Fatal("Permute accepted wrong length")
	}
}

func TestCanonicalInvariantUnderIsomorphism(t *testing.T) {
	for _, m := range []*Metagraph{m1(), m2(), m3(), m4(), m5()} {
		key := m.Canonical()
		perm := rand.New(rand.NewSource(1)).Perm(m.N())
		p, err := m.Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		if p.Canonical() != key {
			t.Fatalf("canonical key not invariant for %v under %v", m, perm)
		}
		if !Isomorphic(m, p) {
			t.Fatalf("Isomorphic(%v, permuted) = false", m)
		}
	}
}

func TestCanonicalDistinguishes(t *testing.T) {
	// M1 and M2 share shape but differ in types.
	if m1().Canonical() == m2().Canonical() {
		t.Fatal("M1 and M2 share a canonical key")
	}
	// Path u-s-u vs star would differ in shape.
	path := MustNew([]graph.TypeID{tUser, tSchool, tUser}, []Edge{{0, 1}, {1, 2}})
	tri := MustNew([]graph.TypeID{tUser, tSchool, tUser}, []Edge{{0, 1}, {1, 2}, {0, 2}})
	if path.Canonical() == tri.Canonical() {
		t.Fatal("path and triangle share a canonical key")
	}
	if Isomorphic(path, tri) {
		t.Fatal("Isomorphic(path, triangle) = true")
	}
}

// randomConnected builds a random connected typed metagraph for property
// tests: a random spanning tree plus a few extra edges.
func randomConnected(rng *rand.Rand) *Metagraph {
	n := 2 + rng.Intn(5)
	types := make([]graph.TypeID, n)
	for i := range types {
		types[i] = graph.TypeID(rng.Intn(3))
	}
	var edges []Edge
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		edges = append(edges, Edge{j, i})
	}
	for k := 0; k < rng.Intn(3); k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			if u > v {
				u, v = v, u
			}
			edges = append(edges, Edge{u, v})
		}
	}
	return MustNew(types, edges)
}

func TestQuickCanonicalInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomConnected(rng)
		p, err := m.Permute(rng.Perm(m.N()))
		if err != nil {
			return false
		}
		return m.Canonical() == p.Canonical()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAutomorphismsCount(t *testing.T) {
	// M3: identity + end swap.
	if got := len(m3().Automorphisms()); got != 2 {
		t.Fatalf("M3 automorphisms = %d, want 2", got)
	}
	// M1: identity + user swap (school/major differ in type, cannot swap).
	if got := len(m1().Automorphisms()); got != 2 {
		t.Fatalf("M1 automorphisms = %d, want 2", got)
	}
	// A 4-cycle of identical types has the full dihedral group (8).
	sq := MustNew([]graph.TypeID{0, 0, 0, 0}, []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	if got := len(sq.Automorphisms()); got != 8 {
		t.Fatalf("square automorphisms = %d, want 8", got)
	}
}

// conditionFixtures covers automorphism groups of order 1, 2, 4, 6, 8 and
// 24: a chain of distinct types, the paper's M1–M5, a one-type path, 3- and
// 4-leaf stars, a one-type triangle, and 4-cycles over one and two types.
func conditionFixtures() map[string]*Metagraph {
	return map[string]*Metagraph{
		"chain":        MustNew([]graph.TypeID{tUser, tSchool, tMajor}, []Edge{{0, 1}, {1, 2}}),
		"M1":           m1(),
		"M2":           m2(),
		"M3":           m3(),
		"M4":           m4(),
		"M5":           m5(),
		"path4":        MustNew([]graph.TypeID{tUser, tUser, tUser, tUser}, []Edge{{0, 1}, {1, 2}, {2, 3}}),
		"star3":        MustNew([]graph.TypeID{tUser, tUser, tSchool, tUser}, []Edge{{0, 2}, {1, 2}, {2, 3}}),
		"star4":        MustNew([]graph.TypeID{tSchool, tUser, tUser, tUser, tUser}, []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}}),
		"triangle":     MustNew([]graph.TypeID{tUser, tUser, tUser}, []Edge{{0, 1}, {1, 2}, {0, 2}}),
		"square":       MustNew([]graph.TypeID{tUser, tUser, tUser, tUser}, []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 3}}),
		"square2types": MustNew([]graph.TypeID{tUser, tUser, tSchool, tSchool}, []Edge{{0, 2}, {1, 2}, {0, 3}, {1, 3}}),
		"chiral9":      chiralCycle(),
	}
}

// chiralCycle is a 9-cycle typed user, school, major around: its
// rotations by three are its only automorphisms (a reflection reverses the
// type order), so no node is symmetric to another per Def. 1, yet every
// node has an orbit of three.
func chiralCycle() *Metagraph {
	types := make([]graph.TypeID, 9)
	var edges []Edge
	for i := range types {
		types[i] = []graph.TypeID{tUser, tSchool, tMajor}[i%3]
		edges = append(edges, Edge{min(i, (i+1)%9), max(i, (i+1)%9)})
	}
	return MustNew(types, edges)
}

// checkConditions brute-forces m's conditions over every permutation a of
// 0..n-1, an injective assignment: exactly one member of each Aut-orbit
// {a∘σ} satisfies them, and it is the orbit's lexicographic minimum.
func checkConditions(t *testing.T, name string, m *Metagraph) {
	t.Helper()
	auts, conds := m.Automorphisms(), m.SymmetryConditions()
	if (len(conds) == 0) != (len(auts) == 1) {
		t.Fatalf("%s: %d conditions for %d automorphisms", name, len(conds), len(auts))
	}
	n := m.N()
	holds := func(a []int) bool {
		for _, c := range conds {
			if c.U >= c.V || a[c.U] >= a[c.V] {
				return false
			}
		}
		return true
	}
	less := func(a, b []int) bool {
		for i := range a {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return false
	}
	winners := map[string]int{}
	var rec func(a []int, used int)
	rec = func(a []int, used int) {
		if len(a) == n {
			least := a
			for _, s := range auts {
				b := make([]int, n)
				for i := range b {
					b[i] = a[s[i]]
				}
				if less(b, least) {
					least = b
				}
			}
			key := fmt.Sprint(least)
			if _, ok := winners[key]; !ok {
				winners[key] = 0
			}
			if holds(a) {
				if !reflect.DeepEqual(a, least) {
					t.Fatalf("%s: %v satisfies %v but its orbit's least is %v", name, a, conds, least)
				}
				winners[key]++
			}
			return
		}
		for v := 0; v < n; v++ {
			if used&(1<<v) == 0 {
				rec(append(a, v), used|1<<v)
			}
		}
	}
	rec(make([]int, 0, n), 0)
	for key, c := range winners {
		if c != 1 {
			t.Fatalf("%s: %d assignments of orbit %s satisfy %v, want 1", name, c, key, conds)
		}
	}
}

// TestSymmetryConditions: over the fixtures and random metagraphs, the
// conditions pick exactly the lex-min assignment of every orbit, and are
// empty iff the automorphism group is trivial.
func TestSymmetryConditions(t *testing.T) {
	orders := map[int]bool{}
	for name, m := range conditionFixtures() {
		checkConditions(t, name, m)
		orders[len(m.Automorphisms())] = true
	}
	for _, k := range []int{1, 2, 3, 4, 6, 8, 24} {
		if !orders[k] {
			t.Fatalf("no fixture with |Aut| = %d", k)
		}
	}
	if got, want := conditionFixtures()["star3"].SymmetryConditions(), []Edge{{0, 1}, {0, 3}, {1, 3}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("star3 conditions = %v, want %v", got, want)
	}
	if c := chiralCycle(); c.IsSymmetric() || !reflect.DeepEqual(c.SymmetryConditions(), []Edge{{0, 3}, {0, 6}}) {
		t.Fatalf("chiral 9-cycle: symmetric %v, conditions %v", c.IsSymmetric(), c.SymmetryConditions())
	}
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 200; i++ {
		checkConditions(t, fmt.Sprint("random ", i), randomConnected(rng))
	}
}

func TestSymmetricPairs(t *testing.T) {
	// M1–M4 are all symmetric with the two users as the (only) pair.
	for _, tc := range []struct {
		m    *Metagraph
		want []Edge
	}{
		{m1(), []Edge{{0, 1}}},
		{m2(), []Edge{{0, 1}}},
		{m3(), []Edge{{0, 2}}},
		{m4(), []Edge{{0, 1}}},
	} {
		got := tc.m.SymmetricPairs()
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("SymmetricPairs(%v) = %v, want %v", tc.m, got, tc.want)
		}
		if !tc.m.IsSymmetric() {
			t.Fatalf("%v should be symmetric", tc.m)
		}
	}
	// M5: pairs (u1,u5) and (u2,u6) arise jointly.
	got := m5().SymmetricPairs()
	want := []Edge{{0, 4}, {1, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SymmetricPairs(M5) = %v, want %v", got, want)
	}
	// An asymmetric metagraph: user–school–major chain.
	asym := MustNew([]graph.TypeID{tUser, tSchool, tMajor}, []Edge{{0, 1}, {1, 2}})
	if asym.IsSymmetric() {
		t.Fatal("chain of distinct types should be asymmetric")
	}
}

func TestAnchorPairs(t *testing.T) {
	// In M5 only (u1, u5) is a user–user symmetric pair.
	got := m5().AnchorPairs(tUser)
	if !reflect.DeepEqual(got, []Edge{{0, 4}}) {
		t.Fatalf("AnchorPairs = %v", got)
	}
	// M1's pair is user-typed.
	if got := m1().AnchorPairs(tUser); !reflect.DeepEqual(got, []Edge{{0, 1}}) {
		t.Fatalf("AnchorPairs(M1) = %v", got)
	}
	if got := m1().AnchorPairs(tSchool); got != nil {
		t.Fatalf("AnchorPairs(M1, school) = %v, want none", got)
	}
}

func TestInvolutionsAreInvolutions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomConnected(rng)
		for _, inv := range m.Involutions() {
			for i, p := range inv.Perm {
				if inv.Perm[p] != i {
					return false
				}
				if m.types[i] != m.types[p] {
					return false
				}
			}
			// Permutation must preserve edges.
			for _, e := range m.Edges() {
				if !m.HasEdge(inv.Perm[e.U], inv.Perm[e.V]) {
					return false
				}
			}
			if len(inv.Pairs) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeM5(t *testing.T) {
	d := Decompose(m5())
	// Paper: S1={u4}, S2={u1,u2}, S3={u3}, S4={u5,u6} → 4 components in 3
	// groups (S2 and S4 together).
	if d.NumComponents() != 4 {
		t.Fatalf("components = %d, want 4", d.NumComponents())
	}
	if len(d.Groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(d.Groups))
	}
	var sym *Group
	for i := range d.Groups {
		if len(d.Groups[i].Members) == 2 {
			sym = &d.Groups[i]
		}
	}
	if sym == nil {
		t.Fatal("no 2-member group found")
	}
	rep := sym.Representative().Nodes
	sib := sym.Members[1].Nodes
	if !reflect.DeepEqual(rep, []int{0, 1}) || !reflect.DeepEqual(sib, []int{4, 5}) {
		t.Fatalf("group = %v / %v, want {0,1} / {4,5}", rep, sib)
	}
	// Map must send u1→u5 and u2→u6.
	if !reflect.DeepEqual(sym.Maps[1], []int{4, 5}) {
		t.Fatalf("map = %v", sym.Maps[1])
	}
}

func TestDecomposeStar(t *testing.T) {
	// A school with three user leaves: one singleton plus one group of three
	// mutually symmetric components.
	star := MustNew([]graph.TypeID{tSchool, tUser, tUser, tUser},
		[]Edge{{0, 1}, {0, 2}, {0, 3}})
	d := Decompose(star)
	if d.NumComponents() != 4 {
		t.Fatalf("components = %d, want 4", d.NumComponents())
	}
	var big *Group
	for i := range d.Groups {
		if len(d.Groups[i].Members) == 3 {
			big = &d.Groups[i]
		}
	}
	if big == nil {
		t.Fatalf("expected a 3-member group, got %+v", d.Groups)
	}
}

func TestDecomposeAsymmetric(t *testing.T) {
	asym := MustNew([]graph.TypeID{tUser, tSchool, tMajor}, []Edge{{0, 1}, {1, 2}})
	d := Decompose(asym)
	if d.NumComponents() != 3 || len(d.Groups) != 3 {
		t.Fatalf("asymmetric decomposition: %d comps, %d groups", d.NumComponents(), len(d.Groups))
	}
}

// TestQuickDecomposeInvariants checks the properties SymISO relies on:
// the components partition V_M; within a group every member is the image of
// the representative under a type-preserving bijection that preserves
// internal adjacency and the adjacency to all nodes outside rep ∪ member.
func TestQuickDecomposeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomConnected(rng)
		d := Decompose(m)

		seen := make(map[int]bool)
		total := 0
		for _, g := range d.Groups {
			for _, c := range g.Members {
				for _, v := range c.Nodes {
					if seen[v] {
						return false // overlap
					}
					seen[v] = true
					total++
				}
			}
		}
		if total != m.N() {
			return false // not a partition
		}

		for _, g := range d.Groups {
			rep := g.Representative().Nodes
			for k := 1; k < len(g.Members); k++ {
				mp := g.Maps[k]
				if len(mp) != len(rep) {
					return false
				}
				inGroup := make(map[int]bool)
				for _, v := range rep {
					inGroup[v] = true
				}
				for _, v := range mp {
					inGroup[v] = true
				}
				for i, u := range rep {
					if m.types[u] != m.types[mp[i]] {
						return false
					}
					// Internal adjacency preserved.
					for j, v := range rep {
						if m.HasEdge(u, v) != m.HasEdge(mp[i], mp[j]) {
							return false
						}
					}
					// Adjacency to outside nodes preserved (involution
					// fixes the rest).
					for w := 0; w < m.N(); w++ {
						if inGroup[w] {
							continue
						}
						if m.HasEdge(u, w) != m.HasEdge(mp[i], w) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSimplified(t *testing.T) {
	d := Decompose(m5())
	comps, adj := d.Simplified()
	// M5 simplifies to 3 components (paper Fig. 5(b)).
	if len(comps) != 3 {
		t.Fatalf("simplified components = %d, want 3", len(comps))
	}
	if len(adj) != 3 {
		t.Fatalf("adjacency size = %d", len(adj))
	}
	// The school singleton {2} must connect to both other retained
	// components ({0,1} and {3}).
	schoolIdx := -1
	for i, c := range comps {
		if len(c.Nodes) == 1 && c.Nodes[0] == 2 {
			schoolIdx = i
		}
	}
	if schoolIdx == -1 {
		t.Fatalf("school singleton missing from %v", comps)
	}
	links := 0
	for j := range comps {
		if adj[schoolIdx][j] {
			links++
		}
	}
	if links != 2 {
		t.Fatalf("school component links = %d, want 2", links)
	}
}

func TestComponentContains(t *testing.T) {
	c := Component{Nodes: []int{1, 3}}
	if !c.contains(3) || c.contains(2) {
		t.Fatal("contains wrong")
	}
}

func TestDecomposeFourLeafStarPartition(t *testing.T) {
	// Regression: a double-transposition involution (1,2)(3,4) over four
	// mutually symmetric leaves once produced overlapping groups — the
	// first unit's group extension absorbed leaves 3 and 4, yet the second
	// unit still emitted a duplicate group for them.
	star := MustNew([]graph.TypeID{tUser, tUser, tUser, tUser, tUser},
		[]Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	d := Decompose(star)
	seen := make(map[int]int)
	for _, g := range d.Groups {
		for _, c := range g.Members {
			for _, v := range c.Nodes {
				seen[v]++
			}
		}
	}
	if len(seen) != 5 {
		t.Fatalf("decomposition covers %d nodes, want 5", len(seen))
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("node %d appears in %d components", v, n)
		}
	}
}
