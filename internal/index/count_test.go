package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metagraph"
)

// refBuild is the map-based counter the sorting counter replaced, kept as
// the reference it is checked against: per metagraph, in the given order,
// one hash-map counter per touched key, its counts appended to per-key rows.
// It enumerates the instances of g one by one, through the lex-min filter
// over SymISO's unconditioned Match (every assignment), so it shares
// neither the pruned search nor the instance sets with the counter.
func refBuild(ms []*metagraph.Metagraph, order []int, g *graph.Graph) *Index {
	mx, mxy := map[graph.NodeID][]Entry{}, map[PairKey][]Entry{}
	for _, i := range order {
		m := ms[i]
		symPairs := m.SymmetricPairs()
		seen := map[int]bool{}
		var posSet []int
		for _, p := range symPairs {
			for _, v := range []int{p.U, p.V} {
				if !seen[v] {
					seen[v] = true
					posSet = append(posSet, v)
				}
			}
		}
		nodeCount, pairCount := map[graph.NodeID]uint64{}, map[PairKey]uint64{}
		if len(symPairs) > 0 {
			lexMin(match.NewSymISO(g), m, func(a []graph.NodeID) {
				for _, p := range symPairs {
					pairCount[MakePairKey(a[p.U], a[p.V])]++
				}
				for _, p := range posSet {
					nodeCount[a[p]]++
				}
			})
		}
		for k, c := range pairCount {
			mxy[k] = append(mxy[k], Entry{int32(i), uint32(c)})
		}
		for k, c := range nodeCount {
			mx[k] = append(mx[k], Entry{int32(i), uint32(c)})
		}
	}
	pairs := tableOf(mxy)
	return rowsIndex(len(ms), tableOf(mx), &pairs)
}

// lexMin visits each instance of m once: the assignments of matcher's Match
// that are lexicographically least among their images under Aut(m).
func lexMin(matcher match.Matcher, m *metagraph.Metagraph, visit func([]graph.NodeID)) {
	auts := m.Automorphisms()
	matcher.Match(m, func(a []graph.NodeID) bool {
		for _, s := range auts {
			for i := range a {
				if x, y := a[s[i]], a[i]; x != y {
					if x < y {
						return true
					}
					break
				}
			}
		}
		visit(a)
		return true
	})
}

// Types of countGraph.
const (
	cUser graph.TypeID = iota
	cSchool
	cHobby
	cClub // registered, never instantiated
	cTeam
)

// countGraph draws a user/school/hobby graph with a few friendships. With
// few attributes every user holds many of, one user pair shares several
// schools and several hobbies: the shape on which one key has many
// instances of a 4-node metagraph. A few schools also hold a circle of four
// friends, the instances of friendCircle, and a few teams of four to eight
// users each are the small centers of 4-leaf stars.
func countGraph(rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder()
	for _, n := range []string{"user", "school", "hobby", "club", "team"} {
		b.Types().Register(n)
	}
	nu, ns, nh := 5+rng.Intn(60), 1+rng.Intn(6), 1+rng.Intn(6)
	var users, attrs []graph.NodeID
	for i := 0; i < nu; i++ {
		users = append(users, b.AddNode("user", ""))
	}
	for i := 0; i < ns; i++ {
		attrs = append(attrs, b.AddNode("school", ""))
	}
	for i := 0; i < nh; i++ {
		attrs = append(attrs, b.AddNode("hobby", ""))
	}
	for _, u := range users {
		for j := rng.Intn(len(attrs) + 1); j >= 0; j-- {
			b.AddEdge(u, attrs[rng.Intn(len(attrs))])
		}
		if rng.Intn(3) == 0 {
			b.AddEdge(u, users[rng.Intn(nu)])
		}
	}
	for i := rng.Intn(3); i > 0; i-- {
		school := attrs[rng.Intn(ns)]
		circle := [4]graph.NodeID{}
		for j := range circle {
			circle[j] = users[rng.Intn(nu)]
			b.AddEdge(circle[j], school)
		}
		for j := range circle {
			b.AddEdge(circle[j], circle[(j+1)%4])
		}
	}
	for i := 1 + rng.Intn(3); i > 0; i-- {
		team := b.AddNode("team", "")
		for j := 4 + rng.Intn(5); j > 0; j-- {
			b.AddEdge(team, users[rng.Intn(nu)])
		}
	}
	return b.MustBuild()
}

// friendCircle is a school with four students who are friends around a
// circle: 1–3–2–4–1. Its automorphisms move every student to every other,
// but a transposition only swaps opposite ones, so the decomposition has two
// groups of two one-node members whose conditions reach across:
// a[1] < a[2], a[1] < a[3], a[1] < a[4], a[3] < a[4]. Whichever group SymISO
// places last has a condition against an earlier node, and it must search
// that group rather than report it as a set.
func friendCircle() *metagraph.Metagraph {
	return metagraph.MustNew([]graph.TypeID{cSchool, cUser, cUser, cUser, cUser},
		[]metagraph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}, {U: 1, V: 3}, {U: 1, V: 4}, {U: 2, V: 3}, {U: 2, V: 4}})
}

// star returns the star of the given center and leaf type with n leaves.
func star(center, leaf graph.TypeID, n int) *metagraph.Metagraph {
	types := []graph.TypeID{center}
	var edges []metagraph.Edge
	for i := 1; i <= n; i++ {
		types = append(types, leaf)
		edges = append(edges, metagraph.Edge{U: 0, V: i})
	}
	return metagraph.MustNew(types, edges)
}

// randMetagraph draws a connected 3- or 4-node pattern over user, school
// and hobby: a random spanning tree plus random extra edges. Most draws are
// asymmetric, which the counter skips.
func randMetagraph(rng *rand.Rand) *metagraph.Metagraph {
	n := 3 + rng.Intn(2)
	types := make([]graph.TypeID, n)
	for i := range types {
		types[i] = graph.TypeID(rng.Intn(3))
	}
	var edges []metagraph.Edge
	for v := 1; v < n; v++ {
		edges = append(edges, metagraph.Edge{U: rng.Intn(v), V: v})
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Intn(4) == 0 {
				edges = append(edges, metagraph.Edge{U: u, V: v})
			}
		}
	}
	return metagraph.MustNew(types, edges)
}

// countMetagraphs returns random patterns plus fixed symmetric ones: the
// user–school–user metapath, the two 4-node cycles over a user pair (many
// instances per pair when users share several attributes), a friendship
// triangle through a school, a user–club–user path that has no instance,
// the stars of three users around a hobby and of four around a team, whose
// leaves SymISO reports as sets, and friendCircle, whose last group it must
// not.
func countMetagraphs(rng *rand.Rand) []*metagraph.Metagraph {
	ms := []*metagraph.Metagraph{
		metagraph.MustNew([]graph.TypeID{cUser, cSchool, cUser}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}),
		metagraph.MustNew([]graph.TypeID{cUser, cUser, cSchool, cHobby},
			[]metagraph.Edge{{U: 0, V: 2}, {U: 1, V: 2}, {U: 0, V: 3}, {U: 1, V: 3}}),
		metagraph.MustNew([]graph.TypeID{cUser, cUser, cSchool, cSchool},
			[]metagraph.Edge{{U: 0, V: 2}, {U: 1, V: 2}, {U: 0, V: 3}, {U: 1, V: 3}}),
		metagraph.MustNew([]graph.TypeID{cUser, cUser, cSchool}, []metagraph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}}),
		metagraph.MustNew([]graph.TypeID{cUser, cClub, cUser}, []metagraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}),
		star(cHobby, cUser, 3),
		star(cTeam, cUser, 4),
		friendCircle(),
	}
	for i := 3 + rng.Intn(4); i > 0; i-- {
		ms = append(ms, randMetagraph(rng))
	}
	rng.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
	return ms
}

// TestQuickPartsEqualMapCounter: over random graphs and metagraphs, the
// parts the sorting counter counts, added at their slots, are the index the
// map-based counter builds, byte for byte, whether the slots come in
// ascending or descending order. The
// trials must include the shapes the sort has to get right: keys with long
// runs, inputs on both sides of the small-sort threshold, and a symmetric
// metagraph with no instance; and the shapes the sets have to: a set with
// more candidates than positions, whose keys carry weights, and
// friendCircle's instances, which SymISO must report one by one.
func TestQuickPartsEqualMapCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var longestRun uint32
	var small, large, empty, weighed, circled bool
	for trial := 0; trial < 60; trial++ {
		g := countGraph(rng)
		ms := countMetagraphs(rng)
		matcher := match.NewSymISO(g)
		asc := make([]int, len(ms))
		for i := range asc {
			asc[i] = i
		}
		desc := slices.Clone(asc)
		slices.Reverse(desc)
		want := writeBytes(t, refBuild(ms, asc, g))
		for _, order := range [][]int{asc, desc} {
			ordered := make([]*metagraph.Metagraph, len(order))
			for k, i := range order {
				ordered[k] = ms[i]
			}
			parts, _ := MatchParts(ordered, func() match.Matcher { return matcher }, 1)
			if !bytes.Equal(writeBytes(t, Empty(len(ms)).AddParts(order, parts)), want) {
				t.Fatalf("trial %d, order %v: the sorting counter's parts differ from the map counter", trial, order)
			}
		}
		for _, m := range ms {
			if len(m.SymmetricPairs()) == 0 {
				continue
			}
			n := int(match.CountInstances(matcher, m)) * len(m.SymmetricPairs())
			small, large = small || n > 0 && n < smallSort, large || n >= smallSort
			empty = empty || n == 0
			pairs := new(counter).match(m, matcher, 0)
			for _, p := range pairs.post {
				longestRun = max(longestRun, p.count)
			}
			circle := m.String() == friendCircle().String()
			match.InstanceSets(matcher, m, func(s match.Set) bool {
				if circle && len(s.P) > 0 {
					t.Fatalf("trial %d: SymISO reported friendCircle's last group as a set over %v", trial, s.P)
				}
				circled = circled || circle
				weighed = weighed || len(s.F) > len(s.P)
				return true
			})
		}
	}
	if longestRun < 20 || !small || !large || !empty || !weighed || !circled {
		t.Fatalf("trials too tame: longest run %d, below threshold %v, above %v, no instance %v, a set larger than its positions %v, friendCircle matched %v",
			longestRun, small, large, empty, weighed, circled)
	}
}

// TestCountOverflowIsRefusedForSets: a star of four leaves around one
// center of 2 960 leaves is one set, every leaf in C(2959, 3) ≈ 4.31 × 10^9
// of its C(2960, 4) ≈ 3.2 × 10^12 instances. Counting it is refused before
// any key is written, naming the metagraph and the first leaf, as a run
// past 2^32-1 is; a binomial past uint64 is refused too.
func TestCountOverflowIsRefusedForSets(t *testing.T) {
	b := graph.NewBuilder()
	b.Types().Register("user")
	center := b.AddNode("hobby", "")
	var first graph.NodeID
	for i := 0; i < 2960; i++ {
		leaf := b.AddNode("user", "")
		if i == 0 {
			first = leaf
		}
		b.AddEdge(center, leaf)
	}
	g := b.MustBuild()
	m := star(1, 0, 4)
	if n := match.CountInstances(match.NewSymISO(g), m); n != 2960*2959*2958*2957/24 {
		t.Fatalf("%d instances, want C(2960, 4)", n)
	}
	mustPanic(t, "a leaf in 4.31e9 instances", fmt.Sprintf("metagraph 0, key %d: 4313633159 instances overflow", first), func() {
		new(counter).match(m, match.NewSymISO(g), 0)
	})
	mustPanic(t, "a binomial past uint64", "metagraph 3, key (2,4): C(200, 100) instances overflow", func() {
		gain(200, 100, 3, MakePairKey(4, 2))
	})
}

// TestSetCountsAsItsInstances: a set adds to every key what its instances
// add one at a time, for every kind of key the weights distinguish: a node
// and a pair off P, a node of F, a pair across to a position off P
// symmetric to P, and a pair within F. The sets are drawn by hand over the
// positions of a star whose fourth leaf is placed outside P, the one kind
// SymISO never reports, and weighted keys land in plain runs of the same
// key.
func TestSetCountsAsItsInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	// Leaves 1–4 of center 0 are pairwise symmetric, and so are 5 and 6.
	pairs := []metagraph.Edge{{U: 1, V: 2}, {U: 1, V: 3}, {U: 1, V: 4}, {U: 2, V: 3}, {U: 2, V: 4}, {U: 3, V: 4}, {U: 5, V: 6}}
	positions := []int{1, 2, 3, 4, 5, 6}
	pos := []int{1, 2, 3}
	var weighed bool
	for trial := 0; trial < 200; trial++ {
		sets, one := &counter{}, &counter{}
		for i := 1 + rng.Intn(4); i > 0; i-- {
			nodes := rng.Perm(12 + rng.Intn(4))
			a := make([]graph.NodeID, 7)
			for j := range a {
				a[j] = graph.NodeID(nodes[j])
			}
			free := make([]graph.NodeID, 3+rng.Intn(6))
			for j := range free {
				free[j] = graph.NodeID(nodes[len(nodes)-1-j])
			}
			slices.Sort(free)
			for _, p := range pos {
				a[p] = graph.InvalidNode
			}
			sets.add(match.Set{A: a, P: pos, F: free}, pairs, positions, 0)
			weighed = weighed || len(free) > len(pos)
			for x := 0; x < len(free); x++ {
				for y := x + 1; y < len(free); y++ {
					for z := y + 1; z < len(free); z++ {
						b := slices.Clone(a)
						b[1], b[2], b[3] = free[x], free[y], free[z]
						one.add(match.Set{A: b}, pairs, positions, 0)
					}
				}
			}
		}
		got := writeBytes(t, (&section{numMeta: 1, up: sets.rows(0)}).index())
		if want := writeBytes(t, (&section{numMeta: 1, up: one.rows(0)}).index()); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: the sets count differently from their instances", trial)
		}
		if len(one.weighed) != 0 {
			t.Fatalf("trial %d: plain instances wrote %d weighted keys", trial, len(one.weighed))
		}
	}
	if !weighed {
		t.Fatal("no set had more candidates than positions")
	}
}

// TestRadixSortEqualsSlicesSort: for every key width 0–64 (zero to six
// digit passes), at sizes on both sides of the small-sort threshold, with
// one key and with all keys equal, radixSort returns what slices.Sort does,
// and radixSortWeighted the same keys, each still with its own weight.
func TestRadixSortEqualsSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	check := func(width int, keys []uint64) {
		t.Helper()
		ws := make([]weighted, len(keys))
		for i, k := range keys {
			ws[i] = weighted{k, uint64(i)}
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		gotW := radixSortWeighted(slices.Clone(ws), make([]weighted, len(ws)), width)
		seen := make([]bool, len(ws))
		for i, e := range gotW {
			if e.k != want[i] || ws[e.n].k != e.k || seen[e.n] {
				t.Fatalf("width %d, %d keys: radixSortWeighted put %v at %d, want key %d", width, len(keys), e, i, want[i])
			}
			seen[e.n] = true
		}
		got := radixSort(keys, make([]uint64, len(keys)), width)
		if !slices.Equal(got, want) {
			t.Fatalf("width %d, %d keys: radixSort disagrees with slices.Sort", width, len(keys))
		}
	}
	draw := func(width, n int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64() >> (64 - width)
		}
		return keys
	}
	for width := 0; width <= 64; width++ {
		for _, n := range []int{0, 1, smallSort - 1, smallSort, smallSort + 1, 2000 + rng.Intn(3000)} {
			check(width, draw(width, n))
		}
		check(width, slices.Repeat(draw(width, 1), 3*smallSort))
	}
}

// TestCounterScratchStopsGrowing: a worker's scratch, plain and weighted,
// grows to its largest metagraph and is reused after that — counting the
// same metagraphs again moves none of its slices.
func TestCounterScratchStopsGrowing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, ms := countGraph(rng), countMetagraphs(rng)
	matcher := match.NewSymISO(g)
	sc := &counter{}
	for _, m := range ms {
		sc.part(m, matcher)
	}
	scratch := func() []unsafe.Pointer {
		return []unsafe.Pointer{unsafe.Pointer(unsafe.SliceData(sc.pairs)), unsafe.Pointer(unsafe.SliceData(sc.counts)),
			unsafe.Pointer(unsafe.SliceData(sc.touched)), unsafe.Pointer(unsafe.SliceData(sc.buf)),
			unsafe.Pointer(unsafe.SliceData(sc.weighed)), unsafe.Pointer(unsafe.SliceData(sc.wbuf))}
	}
	grown := scratch()
	if slices.Contains(grown, nil) {
		t.Fatal("the metagraphs wrote no plain or weighted keys, counted no node or never needed a radix buffer")
	}
	if i := slices.IndexFunc(sc.counts, func(n uint64) bool { return n != 0 }); i >= 0 {
		t.Fatalf("node %d's count survived its metagraph", i)
	}
	for _, m := range ms {
		sc.part(m, matcher)
	}
	if !slices.Equal(scratch(), grown) {
		t.Fatal("a second pass over the same metagraphs reallocated the scratch")
	}
}
