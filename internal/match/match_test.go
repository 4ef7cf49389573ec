package match

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/metagraph"
)

// Type ids shared by the fixtures (registration order in buildToy).
const (
	tUser graph.TypeID = iota
	tSurname
	tAddress
	tSchool
	tMajor
	tEmployer
	tHobby
)

// buildToy reproduces the toy social network of Fig. 1(a).
func buildToy(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	// Register types in the fixed order the constants above assume.
	for _, n := range []string{"user", "surname", "address", "school", "major", "employer", "hobby"} {
		b.Types().Register(n)
	}
	alice := b.AddNodeOnce("user", "Alice")
	bob := b.AddNodeOnce("user", "Bob")
	kate := b.AddNodeOnce("user", "Kate")
	jay := b.AddNodeOnce("user", "Jay")
	tom := b.AddNodeOnce("user", "Tom")
	clinton := b.AddNodeOnce("surname", "Clinton")
	green := b.AddNodeOnce("address", "123 Green St")
	white := b.AddNodeOnce("address", "456 White St")
	collegeA := b.AddNodeOnce("school", "College A")
	collegeB := b.AddNodeOnce("school", "College B")
	econ := b.AddNodeOnce("major", "Economics")
	physics := b.AddNodeOnce("major", "Physics")
	companyX := b.AddNodeOnce("employer", "Company X")
	music := b.AddNodeOnce("hobby", "Music")
	for _, e := range [][2]graph.NodeID{
		{alice, clinton}, {bob, clinton},
		{alice, green}, {bob, green},
		{kate, white}, {jay, white},
		{bob, collegeA}, {tom, collegeA},
		{kate, collegeB}, {jay, collegeB},
		{bob, econ}, {tom, econ},
		{kate, physics}, {jay, physics},
		{alice, companyX}, {kate, companyX},
		{alice, music}, {kate, music},
	} {
		b.AddEdge(e[0], e[1])
	}
	return b.MustBuild()
}

func mgM1() *metagraph.Metagraph {
	return metagraph.MustNew(
		[]graph.TypeID{tUser, tUser, tSchool, tMajor},
		[]metagraph.Edge{{U: 0, V: 2}, {U: 1, V: 2}, {U: 0, V: 3}, {U: 1, V: 3}})
}

func mgM2() *metagraph.Metagraph {
	return metagraph.MustNew(
		[]graph.TypeID{tUser, tUser, tEmployer, tHobby},
		[]metagraph.Edge{{U: 0, V: 2}, {U: 1, V: 2}, {U: 0, V: 3}, {U: 1, V: 3}})
}

func mgM3() *metagraph.Metagraph {
	return metagraph.MustNew(
		[]graph.TypeID{tUser, tAddress, tUser},
		[]metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
}

func mgM4() *metagraph.Metagraph {
	return metagraph.MustNew(
		[]graph.TypeID{tUser, tUser, tSurname, tAddress},
		[]metagraph.Edge{{U: 0, V: 2}, {U: 1, V: 2}, {U: 0, V: 3}, {U: 1, V: 3}})
}

// engine is a matcher under test with the name its failures report. Tests
// pass the Matcher itself on: InstanceSets recognises SymISO by its type.
type engine struct {
	name string
	Matcher
}

// allMatchers lists the engines every test runs: the two SymISO orders and
// the brute-force reference.
func allMatchers(g *graph.Graph) []engine {
	return []engine{
		{"brute force", NewBruteForce(g)},
		{"SymISO", NewSymISO(g)},
		{"SymISO-R", NewSymISOR(g, 7)},
	}
}

// assignmentSet collects the sorted multiset of assignments as strings.
func assignmentSet(matcher Matcher, m *metagraph.Metagraph) []string {
	var out []string
	matcher.Match(m, func(a []graph.NodeID) bool {
		out = append(out, fmt.Sprint(a))
		return true
	})
	sort.Strings(out)
	return out
}

// instanceSet collects the set of instance subgraphs, each normalized to a
// sorted node list plus sorted edge list.
func instanceSet(matcher Matcher, m *metagraph.Metagraph) map[string]bool {
	out := make(map[string]bool)
	Instances(matcher, m, func(a []graph.NodeID) bool {
		nodes := append([]graph.NodeID(nil), a...)
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		var edges [][2]graph.NodeID
		for _, e := range m.Edges() {
			u, v := a[e.U], a[e.V]
			if u > v {
				u, v = v, u
			}
			edges = append(edges, [2]graph.NodeID{u, v})
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i][0] != edges[j][0] {
				return edges[i][0] < edges[j][0]
			}
			return edges[i][1] < edges[j][1]
		})
		out[fmt.Sprint(nodes, edges)] = true
		return true
	})
	return out
}

func TestToyM3Instances(t *testing.T) {
	g := buildToy(t)
	for _, matcher := range allMatchers(g) {
		// Two instances (Alice–Green–Bob, Kate–White–Jay), each with two
		// automorphic assignments.
		if got := CountAssignments(matcher.Matcher, mgM3()); got != 4 {
			t.Errorf("%s: assignments(M3) = %d, want 4", matcher.name, got)
		}
		if got := CountInstances(matcher.Matcher, mgM3()); got != 2 {
			t.Errorf("%s: instances(M3) = %d, want 2", matcher.name, got)
		}
	}
}

func TestToyM1M2M4Instances(t *testing.T) {
	g := buildToy(t)
	// M1: (Bob,Tom | College A, Economics) and (Kate,Jay | College B,
	// Physics). M2: (Alice,Kate | Company X, Music). M4: (Alice,Bob |
	// Clinton, 123 Green St).
	wants := map[string]int64{"M1": 2, "M2": 1, "M4": 1}
	mgs := map[string]*metagraph.Metagraph{"M1": mgM1(), "M2": mgM2(), "M4": mgM4()}
	for name, m := range mgs {
		for _, matcher := range allMatchers(g) {
			if got := CountInstances(matcher.Matcher, m); got != wants[name] {
				t.Errorf("%s: instances(%s) = %d, want %d", matcher.name, name, got, wants[name])
			}
		}
	}
}

// TestMatchersAgreeOnToy: both SymISO orders enumerate the brute-force
// reference's assignment multiset on the toy network's metagraphs.
func TestMatchersAgreeOnToy(t *testing.T) {
	g := buildToy(t)
	for _, m := range []*metagraph.Metagraph{mgM1(), mgM2(), mgM3(), mgM4()} {
		want := assignmentSet(NewBruteForce(g), m)
		for _, matcher := range allMatchers(g)[1:] {
			got := assignmentSet(matcher.Matcher, m)
			if len(got) != len(want) {
				t.Fatalf("%s on %v: %d assignments, want %d", matcher.name, m, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s on %v: assignment sets differ at %d: %s vs %s",
						matcher.name, m, i, got[i], want[i])
				}
			}
		}
	}
}

func TestEarlyStop(t *testing.T) {
	g := buildToy(t)
	for _, matcher := range allMatchers(g) {
		n := 0
		matcher.Match(mgM3(), func(a []graph.NodeID) bool {
			n++
			return false
		})
		if n != 1 {
			t.Errorf("%s: early stop visited %d assignments", matcher.name, n)
		}
	}
}

func TestInstancesVisitUniqueSubgraphs(t *testing.T) {
	g := buildToy(t)
	m := mgM1()
	seen := make(map[string]int)
	Instances(NewSymISO(g), m, func(a []graph.NodeID) bool {
		nodes := append([]graph.NodeID(nil), a...)
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		seen[fmt.Sprint(nodes)]++
		return true
	})
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("instance %s visited %d times", k, c)
		}
	}
}

// randomTypedGraph builds a random graph for differential tests.
func randomTypedGraph(rng *rand.Rand, nodes, edges, types int) *graph.Graph {
	b := graph.NewBuilder()
	names := make([]string, types)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
		b.Types().Register(names[i])
	}
	for i := 0; i < nodes; i++ {
		b.AddNode(names[rng.Intn(types)], "")
	}
	for i := 0; i < edges; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(nodes)), graph.NodeID(rng.Intn(nodes)))
	}
	return b.MustBuild()
}

// randomMetagraph builds a random connected metagraph over the type set.
func randomMetagraph(rng *rand.Rand, types int) *metagraph.Metagraph {
	n := 2 + rng.Intn(4)
	ts := make([]graph.TypeID, n)
	for i := range ts {
		ts[i] = graph.TypeID(rng.Intn(types))
	}
	var edges []metagraph.Edge
	for i := 1; i < n; i++ {
		edges = append(edges, metagraph.Edge{U: rng.Intn(i), V: i})
	}
	for k := 0; k < rng.Intn(3); k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			if u > v {
				u, v = v, u
			}
			edges = append(edges, metagraph.Edge{U: u, V: v})
		}
	}
	return metagraph.MustNew(ts, edges)
}

// TestQuickMatchersAgree is the central differential test: both SymISO
// orders must enumerate exactly the brute-force reference's assignment
// multiset on random inputs.
func TestQuickMatchersAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		types := 1 + rng.Intn(3)
		g := randomTypedGraph(rng, 4+rng.Intn(20), rng.Intn(50), types)
		m := randomMetagraph(rng, types)
		want := assignmentSet(NewBruteForce(g), m)
		for _, matcher := range allMatchers(g)[1:] {
			got := assignmentSet(matcher.Matcher, m)
			if len(got) != len(want) {
				t.Logf("seed %d: %s found %d assignments, brute force %d (m=%v)",
					seed, matcher.name, len(got), len(want), m)
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					t.Logf("seed %d: %s assignment mismatch (m=%v)", seed, matcher.name, m)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInstancesAgree verifies instance sets agree too: SymISO's pruned
// search against the conditions filtering the brute-force reference.
func TestQuickInstancesAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		types := 1 + rng.Intn(3)
		g := randomTypedGraph(rng, 4+rng.Intn(16), rng.Intn(40), types)
		m := randomMetagraph(rng, types)
		want := instanceSet(NewBruteForce(g), m)
		for _, matcher := range allMatchers(g)[1:] {
			got := instanceSet(matcher.Matcher, m)
			if len(got) != len(want) {
				return false
			}
			for k := range want {
				if !got[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAssignmentsValid: every reported assignment is injective,
// type-preserving, and edge-preserving (Def. 2).
func TestQuickAssignmentsValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		types := 1 + rng.Intn(3)
		g := randomTypedGraph(rng, 4+rng.Intn(16), rng.Intn(40), types)
		m := randomMetagraph(rng, types)
		ok := true
		for _, matcher := range allMatchers(g) {
			matcher.Match(m, func(a []graph.NodeID) bool {
				used := make(map[graph.NodeID]bool)
				for i, v := range a {
					if used[v] || g.Type(v) != m.Type(i) {
						ok = false
						return false
					}
					used[v] = true
				}
				for _, e := range m.Edges() {
					if !g.HasEdge(a[e.U], a[e.V]) {
						ok = false
						return false
					}
				}
				return true
			})
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateOrderIsPermutation(t *testing.T) {
	g := buildToy(t)
	stats := NewGraphStats(g)
	for _, m := range []*metagraph.Metagraph{mgM1(), mgM2(), mgM3(), mgM4()} {
		order := EstimateOrder(stats, m)
		if len(order) != m.N() {
			t.Fatalf("order length %d != %d", len(order), m.N())
		}
		seen := make(map[int]bool)
		for _, v := range order {
			if v < 0 || v >= m.N() || seen[v] {
				t.Fatalf("order %v is not a permutation", order)
			}
			seen[v] = true
		}
	}
}

func TestGraphStats(t *testing.T) {
	g := buildToy(t)
	s := NewGraphStats(g)
	if s.NodeCount(tUser) != 5 {
		t.Fatalf("NodeCount(user) = %f", s.NodeCount(tUser))
	}
	// user–surname edges: Alice–Clinton, Bob–Clinton.
	if s.EdgeCount(tUser, tSurname) != 2 || s.EdgeCount(tSurname, tUser) != 2 {
		t.Fatalf("EdgeCount(user,surname) = %f", s.EdgeCount(tUser, tSurname))
	}
	if s.EdgeCount(tSurname, tHobby) != 0 {
		t.Fatalf("EdgeCount(surname,hobby) = %f", s.EdgeCount(tSurname, tHobby))
	}
}

func TestConnectedOrder(t *testing.T) {
	m := mgM1()
	order := connectedOrder(m, []int{0, 1, 2}, 0)
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	// Node after the first must touch the prefix when possible: 0 and 1 are
	// not adjacent, but both touch 2.
	if order[0] == 0 && order[1] == 1 {
		t.Fatalf("order %v breaks connectivity preference", order)
	}
	// With 1 placed before the subset, the walk starts next to it: 0 does
	// not touch 1, 2 does.
	if order := connectedOrder(m, []int{0, 2}, 1<<1); order[0] != 2 {
		t.Fatalf("order %v after node 1 starts away from it", order)
	}
}
